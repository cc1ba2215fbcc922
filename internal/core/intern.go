package core

import (
	"sigrec/internal/evm"
)

// interner hash-conses Expr nodes for one TASE exploration: structurally
// identical expressions are canonicalized to a single immutable node and
// assigned a small integer id. Because every canonical node's children are
// themselves canonical, the structural hash and the equality check are both
// shallow — a key of scalar fields plus child *pointers* — so lookups never
// recurse and pointer equality substitutes for deep comparison everywhere
// downstream (event dedup, common-subexpression reuse).
//
// An interner is confined to a single goroutine and lives for one trace.
// It is part of that trace's region (see region.go): when the trace has
// been inferred, the region is released and the tables are cleared for
// the next trace rather than replaced. Clearing costs a memclr at the
// table's high-water size, but the pool bounds that size (maxPooledEntries)
// and regrowing fresh tables on every trace cost more, measured on the
// cold-recovery benchmark.
//
// Nodes are split across three tables by kind so every key is compact —
// applications hash 32 bytes (three child pointers plus a packed tag)
// instead of one wide struct carrying a Word and a string for all kinds.
type interner struct {
	// apps holds KindApp, KindCData, and KindCSize nodes; the tag packs
	// kind, opcode, and arity.
	apps map[appInternKey]*Expr
	// consts holds constant nodes too large for the smallConst cache.
	consts map[evm.Word]*Expr
	// envs holds environment nodes keyed by (label, seq).
	envs map[envInternKey]*Expr

	nextID uint32
	// hits/misses meter the hash-consing effectiveness; finishTASE folds
	// them into the pipeline telemetry.
	hits, misses uint64

	// Slabs back the canonical nodes: every install carves its Expr, its
	// concrete Word, and its Args array out of chunked arrays instead of
	// individual heap objects. Nodes are immutable and share the trace's
	// lifetime (nothing outlives the recovery holding an *Expr), so the
	// chunks are rewound as one unit when the region is released.
	exprs slab[Expr]
	words slab[evm.Word]
	args  slab[*Expr]

	// smallConst caches the canonical nodes for constants 0..255 in front
	// of the consts table — stack offsets, head offsets, and mask widths
	// dominate constE traffic, and a direct index avoids hashing on every
	// hit. The table stays authoritative (every install still goes through
	// it), so canonical() converges foreign trees with constW-built nodes.
	smallConst [256]*Expr
}

// appInternKey is the shallow structural identity of an application-shaped
// node. Child pointers are canonical, so pointer equality on a0..a2 is
// structural equality of the subtrees. Pure EVM opcodes pop at most three
// operands (ADDMOD and MULMOD), which bounds the arity.
type appInternKey struct {
	a0, a1, a2 *Expr
	tag        uint32
}

// appTag packs the discriminating scalars of an application-shaped node.
func appTag(kind ExprKind, op evm.Op, nargs int) uint32 {
	return uint32(kind)<<16 | uint32(op)<<8 | uint32(nargs)
}

// envInternKey identifies an environment node.
type envInternKey struct {
	env string
	seq int
}

const internSlabLen = 128

// newExpr carves one zeroed node from the slab.
func (it *interner) newExpr() *Expr { return &it.exprs.take(1)[0] }

// newWord stores w in the word slab and returns its address.
func (it *interner) newWord(w evm.Word) *evm.Word {
	p := &it.words.take(1)[0]
	*p = w
	return p
}

// ownArgs copies the operands into slab-backed storage (callers pass
// scratch arrays that must not be aliased by the canonical node).
func (it *interner) ownArgs(args []*Expr) []*Expr {
	if len(args) == 0 {
		return nil
	}
	owned := it.args.take(len(args))
	copy(owned, args)
	return owned
}

// init makes the empty tables. No size hints: most traces are small, and
// empty tables are cheap.
func (it *interner) init() {
	it.apps = make(map[appInternKey]*Expr)
	it.consts = make(map[evm.Word]*Expr)
	it.envs = make(map[envInternKey]*Expr)
}

// reset empties the tables and rewinds the slabs for the region's next
// trace; every node handed out so far is dead. With poison set it
// scribbles the released nodes instead of clearing them (see
// poisonRegions), and scrub must run before the next trace.
func (it *interner) reset(poison bool) {
	clear(it.apps)
	clear(it.consts)
	clear(it.envs)
	it.nextID, it.hits, it.misses = 0, 0, 0
	if !poison {
		it.exprs.reset(nil)
		it.words.reset(nil)
		it.args.reset(nil)
		it.smallConst = [256]*Expr{}
		return
	}
	it.exprs.reset(&poisonExpr)
	it.words.reset(&poisonWord)
	arg := &poisonExpr
	it.args.reset(&arg)
	for i := range it.smallConst {
		it.smallConst[i] = &poisonExpr
	}
}

// scrub zeroes what a poisoned reset scribbled.
func (it *interner) scrub() {
	it.exprs.scrub()
	it.words.scrub()
	it.args.scrub()
	it.smallConst = [256]*Expr{}
}

// tableLen reports the total number of installed nodes (test hook).
func (it *interner) tableLen() int {
	return len(it.apps) + len(it.consts) + len(it.envs)
}

// assignID gives e the next id and counts the install.
func (it *interner) assignID(e *Expr) *Expr {
	it.misses++
	it.nextID++
	e.id = it.nextID
	return e
}

// constW returns the canonical constant node for w.
func (it *interner) constW(w evm.Word) *Expr {
	v, small := w.Uint64()
	small = small && v < uint64(len(it.smallConst))
	if small {
		if e := it.smallConst[v]; e != nil {
			it.hits++
			return e
		}
	}
	if e, ok := it.consts[w]; ok {
		it.hits++
		if small {
			it.smallConst[v] = e
		}
		return e
	}
	e := it.newExpr()
	e.Kind = KindConst
	e.Conc = it.newWord(w)
	it.assignID(e)
	it.consts[w] = e
	if small {
		it.smallConst[v] = e
	}
	return e
}

// constUint is constW for small values.
func (it *interner) constUint(v uint64) *Expr { return it.constW(evm.WordFromUint64(v)) }

// cdata returns the canonical CALLDATALOAD(off) node; off must be canonical.
func (it *interner) cdata(off *Expr) *Expr {
	k := appInternKey{tag: appTag(KindCData, 0, 1), a0: off}
	if e, ok := it.apps[k]; ok {
		it.hits++
		return e
	}
	e := it.newExpr()
	e.Kind = KindCData
	e.Args = it.ownArgs([]*Expr{off})
	it.assignID(e)
	it.apps[k] = e
	return e
}

// csize returns the canonical CALLDATASIZE node.
func (it *interner) csize() *Expr {
	k := appInternKey{tag: appTag(KindCSize, 0, 0)}
	if e, ok := it.apps[k]; ok {
		it.hits++
		return e
	}
	e := it.newExpr()
	e.Kind = KindCSize
	it.assignID(e)
	it.apps[k] = e
	return e
}

// env returns the environment node for (label, seq). Sequence numbers are
// unique per trace, so this always installs; interning it anyway gives the
// node an id for integer event keys.
func (it *interner) env(label string, seq int) *Expr {
	k := envInternKey{env: label, seq: seq}
	if e, ok := it.envs[k]; ok {
		it.hits++
		return e
	}
	e := it.newExpr()
	e.Kind = KindEnv
	e.Env = label
	e.Seq = seq
	it.assignID(e)
	it.envs[k] = e
	return e
}

// appKey builds the application key over canonical operands.
func appKey(op evm.Op, args []*Expr) appInternKey {
	k := appInternKey{tag: appTag(KindApp, op, len(args))}
	switch len(args) {
	case 3:
		k.a2 = args[2]
		fallthrough
	case 2:
		k.a1 = args[1]
		fallthrough
	case 1:
		k.a0 = args[0]
	}
	return k
}

// app returns the canonical Op(args...) node, folding concretely on first
// construction; args must be canonical and at most three (every pure EVM
// opcode satisfies this). The args slice is only retained on a miss.
func (it *interner) app(op evm.Op, args ...*Expr) *Expr {
	return it.appN(op, args)
}

// appN is app without the variadic copy, for callers that already hold a
// slice (or a sub-slice of a scratch array — a slab copy is made on miss
// so the canonical node never aliases caller scratch space).
func (it *interner) appN(op evm.Op, args []*Expr) *Expr {
	k := appKey(op, args)
	if e, ok := it.apps[k]; ok {
		it.hits++
		return e
	}
	e := it.newExpr()
	e.Kind = KindApp
	e.Op = op
	e.Args = it.ownArgs(args)
	if w, ok := foldArgs(op, args); ok {
		e.Conc = it.newWord(w)
	}
	it.assignID(e)
	it.apps[k] = e
	return e
}

// canonical returns the canonical node for an arbitrary expression tree,
// interning any not-yet-seen structure bottom-up. Already-canonical nodes
// (id set) return immediately, so on the interned construction path this
// is a single field test; it only walks for foreign trees (the interning-
// disabled mode, which still needs ids for event dedup keys).
func (it *interner) canonical(e *Expr) *Expr {
	if e.id != 0 {
		return e
	}
	n := len(e.Args)
	if n > 3 {
		// Not an internable shape (cannot happen for TASE-built nodes);
		// give it a unique id so dedup still has a stable key.
		it.nextID++
		e.id = it.nextID
		return e
	}
	if e.Kind == KindConst && e.Conc != nil {
		// Constants key on their value alone; converge with constW
		// (including its small-value cache).
		return it.constW(*e.Conc)
	}
	if e.Kind == KindEnv {
		return it.env(e.Env, e.Seq)
	}
	k := appInternKey{tag: appTag(e.Kind, e.Op, n)}
	changed := false
	var cargs [3]*Expr
	for i := 0; i < n; i++ {
		cargs[i] = it.canonical(e.Args[i])
		changed = changed || cargs[i] != e.Args[i]
	}
	k.a0, k.a1, k.a2 = cargs[0], cargs[1], cargs[2]
	if c, ok := it.apps[k]; ok {
		it.hits++
		return c
	}
	c := e
	if changed {
		c = &Expr{Kind: e.Kind, Conc: e.Conc, Op: e.Op, Env: e.Env, Seq: e.Seq,
			Args: append([]*Expr(nil), cargs[:n]...)}
	}
	it.assignID(c)
	it.apps[k] = c
	return c
}

// idOf returns the canonical id of e, interning it if needed.
func (it *interner) idOf(e *Expr) uint32 { return it.canonical(e).id }
