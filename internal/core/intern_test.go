package core

import (
	"testing"

	"sigrec/internal/evm"
)

func TestInternerCanonicalizesConstruction(t *testing.T) {
	it := &newRegion().it

	a := it.constUint(42)
	b := it.constUint(42)
	if a != b {
		t.Fatalf("equal constants interned to distinct nodes")
	}
	if a == it.constUint(43) {
		t.Fatalf("distinct constants interned to the same node")
	}

	off := it.constUint(4)
	cd1 := it.cdata(off)
	cd2 := it.cdata(it.constUint(4))
	if cd1 != cd2 {
		t.Fatalf("equal cd[4] nodes interned to distinct nodes")
	}

	app1 := it.app(evm.AND, cd1, it.constUint(0xff))
	app2 := it.app(evm.AND, cd2, it.constUint(0xff))
	if app1 != app2 {
		t.Fatalf("equal applications interned to distinct nodes")
	}
	if app1 == it.app(evm.AND, it.constUint(0xff), cd1) {
		t.Fatalf("argument order ignored by interning")
	}
	if app1.id == 0 {
		t.Fatalf("interned node has no id")
	}
	if it.hits == 0 || it.misses == 0 {
		t.Fatalf("hit/miss counters not maintained: hits=%d misses=%d", it.hits, it.misses)
	}
}

func TestInternerAppDoesNotAliasScratch(t *testing.T) {
	it := &newRegion().it

	scratch := [3]*Expr{it.constUint(1), it.constUint(2)}
	e := it.appN(evm.ADD, scratch[:2])
	scratch[0], scratch[1] = nil, nil // simulate scratch reuse
	if e.Args[0] == nil || e.Args[1] == nil {
		t.Fatalf("interned node aliases caller scratch space")
	}
}

func TestInternerCanonicalForeignTree(t *testing.T) {
	it := &newRegion().it

	// Build the same structure twice without the interner (the noIntern
	// mode) and check canonicalization converges to one node with one id.
	mk := func() *Expr {
		return NewApp(evm.DIV, NewCData(NewConstUint(0)), NewConstUint(1<<32))
	}
	x, y := mk(), mk()
	if x == y {
		t.Fatalf("test setup: fresh trees must be distinct pointers")
	}
	cx, cy := it.canonical(x), it.canonical(y)
	if cx != cy {
		t.Fatalf("canonical() did not converge structurally equal trees")
	}
	if it.idOf(x) != it.idOf(y) || it.idOf(x) == 0 {
		t.Fatalf("idOf mismatch: %d vs %d", it.idOf(x), it.idOf(y))
	}
	// A structurally different tree must get a different id.
	z := NewApp(evm.DIV, NewCData(NewConstUint(4)), NewConstUint(1<<32))
	if it.idOf(z) == it.idOf(x) {
		t.Fatalf("distinct structures share an id")
	}
	// Interned-built and foreign-built structures converge too.
	built := it.app(evm.DIV, it.cdata(it.constUint(0)), it.constUint(1<<32))
	if built != cx {
		t.Fatalf("interner-built and canonicalized trees diverge")
	}
}

func TestInternerReleaseIsolation(t *testing.T) {
	r := getRegion()
	it := &r.it
	first := it.constUint(7)
	it.cdata(first)
	if it.tableLen() == 0 {
		t.Fatalf("expected a populated table")
	}
	r.release()
	// The pool may hand the same region back: its tables, counters and
	// slabs must start over either way.
	r2 := getRegion()
	defer r2.release()
	it2 := &r2.it
	if it2.nextID != 0 || it2.hits != 0 || it2.misses != 0 || it2.tableLen() != 0 {
		t.Fatalf("recycled interner not reset: nextID=%d hits=%d misses=%d entries=%d",
			it2.nextID, it2.hits, it2.misses, it2.tableLen())
	}
	// Entries from the previous trace are dead: the same key must come
	// back as a clean miss on a zeroed node, not a stale hit.
	again := it2.constUint(7)
	if it2.hits != 0 || it2.misses != 1 || again.id != 1 || again.str != "" || again.Args != nil {
		t.Fatalf("expected a clean miss after release: hits=%d misses=%d node=%+v", it2.hits, it2.misses, *again)
	}
}
