package core

import (
	"sync"
	"time"

	"sigrec/internal/evm"
	"sigrec/internal/obs"
)

// Exploration budgets. TASE only needs the parameter-handling prefix of each
// function, so these are generous for generated and real-world dispatch
// bodies alike.
const (
	maxVisitsPerJumpi = 3
	maxStepsPerPath   = 60_000
	maxPathsPerFn     = 512
	maxTotalSteps     = 4_000_000
	// memRegionSpan bounds how far past a CALLDATACOPY destination an MLOAD
	// is still attributed to that copy when the copy length is symbolic.
	memRegionSpan = 0x8000
	// deadlineCheckMask: the wall clock and the cancellation channel are
	// polled every (mask+1) steps; at sub-microsecond step cost this keeps
	// deadline overshoot far below a millisecond while adding well under 1%
	// overhead.
	deadlineCheckMask = 255
)

// limits bounds one TASE exploration. The zero value means "no explicit
// caller bounds"; defaultLimits fills in the built-in budgets.
type limits struct {
	// maxSteps caps the total symbolic steps across all paths.
	maxSteps int
	// maxPaths caps the number of explored paths.
	maxPaths int
	// deadline is the wall-clock cutoff; zero means none.
	deadline time.Time
	// done, when non-nil, cancels the exploration when closed (a
	// context.Context's Done channel).
	done <-chan struct{}
	// noIntern disables hash-consed expression construction (nodes are
	// still canonicalized lazily for event dedup keys). It exists for the
	// interning ON/OFF differential test and as an operational escape
	// hatch; recovery results must be identical either way.
	noIntern bool
}

// defaultLimits returns the built-in exploration budgets.
func defaultLimits() limits {
	return limits{maxSteps: maxTotalSteps, maxPaths: maxPathsPerFn}
}

// EventKind discriminates collected events.
type EventKind int

// Event kinds.
const (
	// EvCDL is a CALLDATALOAD.
	EvCDL EventKind = iota + 1
	// EvCDC is a CALLDATACOPY.
	EvCDC
	// EvOp is an instruction applied to a call-data-derived value.
	EvOp
)

// Guard is one conditional branch the current path passed through.
type Guard struct {
	// PC of the JUMPI.
	PC uint64
	// Cond is the branch condition (full symbolic structure).
	Cond *Expr
	// Taken reports whether the jump was taken.
	Taken bool
	// Lo and Hi delimit the static scope interval used as a control-
	// dependence approximation: an event at pc in (Lo, Hi) is treated as
	// controlled by this guard.
	Lo, Hi uint64
}

// Controls reports whether an event at pc falls in the guard's scope.
func (g Guard) Controls(pc uint64) bool { return pc > g.Lo && pc < g.Hi }

// Event is one observation made during TASE.
type Event struct {
	Kind EventKind
	PC   uint64

	// EvCDL: Off is the load offset; Val the loaded value.
	Off *Expr
	Val *Expr

	// EvCDC: Dst is the (concrete) memory destination, Src and Len the
	// call-data source offset and byte count.
	Dst uint64
	Src *Expr
	Len *Expr

	// EvOp: Op and its operands.
	Op   evm.Op
	Args []*Expr

	// Guards active when the event fired.
	Guards []Guard
}

// Trace is the deduplicated event stream of one function.
type Trace struct {
	Selector [4]byte
	Events   []Event
	// Truncated is set when an exploration budget was hit.
	Truncated bool
}

// state is one symbolic machine state during path exploration. Forks share
// every container copy-on-write: cloning is O(1), the append-only slices
// (copies, guards) are capacity-trimmed so either side's next append
// reallocates instead of scribbling on the shared prefix, and the mutable
// containers (stack, mem, visits) carry ownership flags — a state copies
// them into pooled storage the first time it writes after a fork.
type state struct {
	pc    uint64
	steps int

	stack []*Expr
	// stackRef is the pool box the owned stack buffer came from; it is
	// returned to the pool only while stackOwned (exclusive) at release.
	stackRef *[]*Expr
	mem      map[uint64]*Expr
	copies   []memCopy
	visits   map[uint64]int
	guards   []Guard

	// Ownership flags: false means the container is (potentially) shared
	// with a forked sibling and must be copied before the next write.
	stackOwned  bool
	memOwned    bool
	visitsOwned bool
}

type memCopy struct {
	dst uint64
	src *Expr
	ln  *Expr
}

// Allocation pools for exploration state. States fork and die at every
// JUMPI fan-out; recycling them (and their stack buffers and maps) keeps
// the per-path cost flat regardless of state size. Guard and copy slices
// are never pooled: events capture capacity-trimmed views of them that
// outlive the exploration.
var (
	statePool = sync.Pool{New: func() any {
		mStateAllocs.Inc()
		return new(state)
	}}
	stackPool = sync.Pool{New: func() any {
		b := make([]*Expr, 0, 32)
		return &b
	}}
	memPool   = sync.Pool{New: func() any { return make(map[uint64]*Expr, 8) }}
	visitPool = sync.Pool{New: func() any { return make(map[uint64]int, 8) }}
)

// tase explores the contract from pc 0 with the call data symbolic except
// for the first 32 bytes, which carry the given selector. The dispatcher
// then folds concretely and execution reaches exactly the selected
// function's body.
type tase struct {
	program    *Program
	selWord    *evm.Word // value returned for CALLDATALOAD(0), nil = symbolic
	lim        limits
	reg        *region   // the exploration's interner, events and dedup set
	it         *interner // &reg.it, the per-trace hash-consing table
	envSeq     int
	paths      int
	totSteps   int
	pruned     int // forks suppressed and worklist states dropped by budgets
	trunc      bool
	cancelable bool   // a deadline or cancellation channel is armed
	expired    bool   // deadline passed or context cancelled
	cloneBytes uint64 // bytes materialized by copy-on-write ownership takes
	stateGets  uint64 // state allocator requests (pool reuses + fresh allocs)
}

// newTASE builds an exploration engine over an empty region: newRegion
// for results the caller keeps, getRegion when the caller releases the
// engine once its trace is inferred.
func newTASE(program *Program, selWord *evm.Word, lim limits, reg *region) *tase {
	return &tase{program: program, selWord: selWord, lim: lim, reg: reg, it: &reg.it}
}

// release returns the engine's region to the pool: the trace's events
// and expressions are dead from here on.
func (t *tase) release() {
	t.reg.release()
	t.reg, t.it = nil, nil
}

// eventID is the dedup key of an Event: expression identity is the interned
// id, so keying does integer compares instead of recursive string
// formatting. Pure opcodes carry at most three operands, which bounds the
// arity (nargs disambiguates the defensive >3 fallback).
type eventID struct {
	kind       EventKind
	op         evm.Op
	nargs      int8
	pc         uint64
	dst        uint64
	a0, a1, a2 uint32
}

// truncationCause names the budget that cut the exploration short, for
// span attributes and the sigrec_truncations_total{cause=...} counter.
// Empty when the exploration completed.
func (t *tase) truncationCause() string {
	switch {
	case !t.trunc:
		return ""
	case t.expired:
		return "deadline"
	case t.totSteps >= t.lim.maxSteps:
		return "steps"
	case t.paths >= t.lim.maxPaths:
		return "paths"
	default:
		return "path-steps"
	}
}

// annotateTASE copies one exploration's counters onto its span in a single
// batched SetAttrs (one attribute slice per span). selHex, when non-empty,
// leads the attributes so per-selector explorations are greppable; the
// dispatcher walk passes "". The guard keeps attribute formatting entirely
// off the untraced path.
func annotateTASE(sp *obs.Span, t *tase, selHex string) {
	if sp == nil {
		return
	}
	attrs := make([]obs.Attr, 0, 6)
	if selHex != "" {
		attrs = append(attrs, obs.Attr{Key: "selector", Str: selHex})
	}
	attrs = append(attrs,
		obs.Attr{Key: "paths", Num: int64(t.paths)},
		obs.Attr{Key: "steps", Num: int64(t.totSteps)},
		obs.Attr{Key: "pruned", Num: int64(t.pruned)},
	)
	if total := t.it.hits + t.it.misses; total > 0 {
		attrs = append(attrs, obs.Attr{Key: "intern_hit_permille", Num: int64(t.it.hits * 1000 / total)})
	}
	if cause := t.truncationCause(); cause != "" {
		attrs = append(attrs, obs.Attr{Key: "truncated", Str: cause})
	}
	sp.SetAttrs(attrs...)
}

// pollCancel checks the cancellation channel and the wall-clock deadline.
// It is deliberately out of the per-step hot path: explore calls it only
// every deadlineCheckMask+1 steps (and at fork points), and only when
// cancelable is set, so unbounded recoveries pay a single flag test.
func (t *tase) pollCancel() bool {
	if t.expired {
		return true
	}
	if t.lim.done != nil {
		select {
		case <-t.lim.done:
			t.expired = true
			return true
		default:
		}
	}
	if !t.lim.deadline.IsZero() && time.Now().After(t.lim.deadline) {
		t.expired = true
		return true
	}
	return false
}

// Program wraps a disassembled contract for analysis.
type Program = evm.Program

// run explores all paths and returns the deduplicated events.
func (t *tase) run() []Event {
	if t.lim.maxSteps <= 0 {
		t.lim.maxSteps = maxTotalSteps
	}
	if t.lim.maxPaths <= 0 {
		t.lim.maxPaths = maxPathsPerFn
	}
	t.cancelable = t.lim.done != nil || !t.lim.deadline.IsZero()
	start := t.newState()
	worklist := []*state{start}
	for len(worklist) > 0 && t.paths < t.lim.maxPaths && t.totSteps < t.lim.maxSteps &&
		!(t.cancelable && t.pollCancel()) {
		st := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		// Forks come back in encounter order; push them reversed so the
		// pop order (earliest fork of the just-finished path first)
		// matches the depth-first order the explorer has always used.
		forks := t.explore(st)
		for i := len(forks) - 1; i >= 0; i-- {
			worklist = append(worklist, forks[i])
		}
	}
	if len(worklist) > 0 {
		// Budget exhausted with states still queued: the result is partial.
		t.pruned += len(worklist)
		t.trunc = true
		for _, st := range worklist {
			t.releaseState(st)
		}
	}
	return t.reg.events
}

// newState takes a zeroed state from the pool.
func (t *tase) newState() *state {
	t.stateGets++
	return statePool.Get().(*state)
}

// releaseState recycles a dead path's state. Only exclusively-owned
// containers go back to their pools; anything shared with a live sibling
// (ownership flag down) is left to that sibling and the GC.
func (t *tase) releaseState(st *state) {
	if st.stackOwned && st.stackRef != nil {
		buf := st.stack[:cap(st.stack)]
		clear(buf) // drop Expr references so pooled buffers don't pin traces
		*st.stackRef = buf[:0]
		stackPool.Put(st.stackRef)
	}
	if st.memOwned && st.mem != nil {
		clear(st.mem)
		memPool.Put(st.mem)
	}
	if st.visitsOwned && st.visits != nil {
		clear(st.visits)
		visitPool.Put(st.visits)
	}
	*st = state{}
	statePool.Put(st)
}

// cloneState forks the state in O(1): every container is shared with the
// original and both sides drop ownership, deferring any copying to the
// first post-fork write (often never — a path that only pops and dies pays
// nothing).
func (t *tase) cloneState(s *state) *state {
	s.stackOwned, s.memOwned, s.visitsOwned = false, false, false
	s.copies = s.copies[:len(s.copies):len(s.copies)]
	s.guards = s.guards[:len(s.guards):len(s.guards)]
	cp := t.newState()
	*cp = *s
	return cp
}

// ownStack materializes a private copy of the stack into a pooled buffer.
func (t *tase) ownStack(st *state) {
	if st.stackOwned {
		return
	}
	ref := stackPool.Get().(*[]*Expr)
	buf := append((*ref)[:0], st.stack...)
	t.cloneBytes += uint64(len(st.stack)) * 8
	st.stack, st.stackRef, st.stackOwned = buf, ref, true
}

// ownMem materializes a private copy of the word-store map.
func (t *tase) ownMem(st *state) {
	if st.memOwned {
		return
	}
	m := memPool.Get().(map[uint64]*Expr)
	for k, v := range st.mem {
		m[k] = v
	}
	t.cloneBytes += uint64(len(st.mem)) * 16
	st.mem, st.memOwned = m, true
}

// ownVisits materializes a private copy of the JUMPI visit counters.
func (t *tase) ownVisits(st *state) {
	if st.visitsOwned {
		return
	}
	m := visitPool.Get().(map[uint64]int)
	for k, v := range st.visits {
		m[k] = v
	}
	t.cloneBytes += uint64(len(st.visits)) * 16
	st.visits, st.visitsOwned = m, true
}

// explore runs one path until it ends, returning forked states in the
// order they were spawned. The state is consumed: it is released back to
// the pool before returning.
func (t *tase) explore(st *state) []*state {
	t.paths++
	var forks []*state
	for {
		if st.steps >= maxStepsPerPath || t.totSteps >= t.lim.maxSteps {
			t.trunc = true
			break
		}
		if t.cancelable && t.totSteps&deadlineCheckMask == 0 && t.pollCancel() {
			t.trunc = true
			break
		}
		idx, ok := t.program.IndexOf(st.pc)
		if !ok {
			break // ran off the end: STOP
		}
		st.steps++
		t.totSteps++
		fork, done := t.step(st, &t.program.Instructions[idx])
		if fork != nil {
			forks = append(forks, fork)
		}
		if done {
			break
		}
	}
	t.releaseState(st)
	return forks
}

// Interned construction helpers. With interning on (the default), all
// expression building funnels through the per-trace hash-consing table;
// the noIntern mode builds fresh nodes exactly as the pre-interner engine
// did, for the differential test.

func (t *tase) constE(w evm.Word) *Expr {
	if t.lim.noIntern {
		return NewConst(w)
	}
	return t.it.constW(w)
}

func (t *tase) constUintE(v uint64) *Expr {
	if t.lim.noIntern {
		return NewConstUint(v)
	}
	return t.it.constUint(v)
}

func (t *tase) cdataE(off *Expr) *Expr {
	if t.lim.noIntern {
		return NewCData(off)
	}
	return t.it.cdata(off)
}

func (t *tase) csizeE() *Expr {
	if t.lim.noIntern {
		return &Expr{Kind: KindCSize}
	}
	return t.it.csize()
}

func (t *tase) appE(op evm.Op, args ...*Expr) *Expr {
	if t.lim.noIntern {
		return NewApp(op, args...)
	}
	return t.it.appN(op, args)
}

func (t *tase) fresh(label string) *Expr {
	t.envSeq++
	if t.lim.noIntern {
		return NewEnv(label, t.envSeq)
	}
	return t.it.env(label, t.envSeq)
}

// record deduplicates and stores an event.
func (t *tase) record(ev Event) {
	key := t.eventID(ev)
	r := t.reg
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	r.events = append(r.events, ev)
}

// eventID builds the integer dedup key of an event from interned ids.
func (t *tase) eventID(ev Event) eventID {
	switch ev.Kind {
	case EvCDL:
		return eventID{kind: EvCDL, pc: ev.PC, a0: t.it.idOf(ev.Off)}
	case EvCDC:
		return eventID{kind: EvCDC, pc: ev.PC, dst: ev.Dst,
			a0: t.it.idOf(ev.Src), a1: t.it.idOf(ev.Len)}
	default:
		k := eventID{kind: EvOp, op: ev.Op, pc: ev.PC, nargs: int8(len(ev.Args))}
		for i, a := range ev.Args {
			switch i {
			case 0:
				k.a0 = t.it.idOf(a)
			case 1:
				k.a1 = t.it.idOf(a)
			case 2:
				k.a2 = t.it.idOf(a)
			}
		}
		return k
	}
}

// guardsSnapshot captures the active guards for attachment to an event.
// Guards are append-only and the slice is capacity-trimmed, so the
// snapshot shares the backing array immutably instead of copying: a later
// append (on this path or a fork) always reallocates past the trim.
func guardsSnapshot(st *state) []Guard {
	return st.guards[:len(st.guards):len(st.guards)]
}

// step executes one instruction. It returns a forked state to queue (at
// most one, from a symbolic JUMPI whose fall-through this path keeps
// following) and whether the path is done.
func (t *tase) step(st *state, ins *evm.Instruction) (*state, bool) {
	op := ins.Op
	if !op.Defined() {
		return nil, true
	}
	pops := op.StackPops()
	if len(st.stack) < pops {
		return nil, true // malformed path; abandon
	}
	pop := func() *Expr {
		e := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		return e
	}
	push := func(e *Expr) {
		t.ownStack(st)
		st.stack = append(st.stack, e)
	}
	nextPC := ins.PC + 1 + uint64(len(ins.ArgBytes))

	switch {
	case op.IsPush():
		push(t.constE(ins.Arg))
	case op.IsDup():
		n := int(op-evm.DUP1) + 1
		push(st.stack[len(st.stack)-n])
	case op.IsSwap():
		n := int(op-evm.SWAP1) + 1
		t.ownStack(st)
		top := len(st.stack) - 1
		st.stack[top], st.stack[top-n] = st.stack[top-n], st.stack[top]
	default:
		switch op {
		case evm.STOP, evm.RETURN, evm.REVERT, evm.INVALID, evm.SELFDESTRUCT:
			return nil, true

		case evm.JUMP:
			dst := pop()
			dv, ok := dst.ConstUint()
			if !ok || !t.program.IsJumpDest(dv) {
				// Input-dependent jump target: stop this path (the paper's
				// documented TASE restriction).
				return nil, true
			}
			st.pc = dv
			return nil, false

		case evm.JUMPI:
			dst := pop()
			cond := pop()
			dv, okDst := dst.ConstUint()
			if !okDst || !t.program.IsJumpDest(dv) {
				return nil, true
			}
			lo, hi := ins.PC, dv
			if hi < lo {
				lo, hi = hi, lo
			}
			mkGuard := func(taken bool) Guard {
				return Guard{PC: ins.PC, Cond: cond, Taken: taken, Lo: lo, Hi: hi}
			}
			taken, decided := false, cond.Conc != nil
			if decided {
				taken = !cond.Conc.IsZero()
			} else if t.selWord == nil {
				// Dispatcher walk: at a function entry follow only the
				// no-match side; the body gets its own per-selector trace.
				taken, decided = dispatchMatch(cond)
			}
			if decided {
				st.guards = append(st.guards, mkGuard(taken))
				if taken {
					st.pc = dv
				} else {
					st.pc = nextPC
				}
				return nil, false
			}
			// Symbolic condition: fork within the visit budget.
			t.ownVisits(st)
			st.visits[ins.PC]++
			if st.visits[ins.PC] > maxVisitsPerJumpi {
				// Budget hit: follow the forward branch (usually the loop
				// exit) unless it lands in an abort block, in which case
				// keep falling through (the branch is a range check).
				t.pruned++
				follow := dv > ins.PC && !t.isRevertBlock(dv)
				st.guards = append(st.guards, mkGuard(follow))
				if follow {
					st.pc = dv
				} else {
					st.pc = nextPC
				}
				return nil, false
			}
			if t.paths >= t.lim.maxPaths || t.totSteps >= t.lim.maxSteps ||
				(t.cancelable && t.pollCancel()) {
				// Fan-out point with the global budget spent: stop forking,
				// follow the fall-through only, and flag the result partial.
				t.pruned++
				t.trunc = true
				st.guards = append(st.guards, mkGuard(false))
				st.pc = nextPC
				return nil, false
			}
			other := t.cloneState(st)
			st.guards = append(st.guards, mkGuard(false))
			st.pc = nextPC
			other.guards = append(other.guards, mkGuard(true))
			other.pc = dv
			// Continue the fall-through on this path (counted as a fresh
			// path, matching the old recursive accounting); queue the
			// taken branch.
			t.paths++
			return other, false

		case evm.CALLDATALOAD:
			off := pop()
			var val *Expr
			if v, ok := off.ConstUint(); ok && v == 0 && t.selWord != nil {
				val = t.constE(*t.selWord)
			} else {
				val = t.cdataE(off)
				t.record(Event{Kind: EvCDL, PC: ins.PC, Off: off, Val: val, Guards: guardsSnapshot(st)})
			}
			push(val)

		case evm.CALLDATASIZE:
			push(t.csizeE())

		case evm.CALLDATACOPY:
			dst, src, ln := pop(), pop(), pop()
			if dv, ok := dst.ConstUint(); ok {
				st.copies = append(st.copies, memCopy{dst: dv, src: src, ln: ln})
				t.record(Event{Kind: EvCDC, PC: ins.PC, Dst: dv, Src: src, Len: ln, Guards: guardsSnapshot(st)})
			}

		case evm.MLOAD:
			addr := pop()
			push(t.mload(st, addr))

		case evm.MSTORE:
			addr, val := pop(), pop()
			if av, ok := addr.ConstUint(); ok {
				t.ownMem(st)
				st.mem[av] = val
			}

		case evm.MSTORE8:
			pop()
			pop()

		case evm.SLOAD:
			pop()
			push(t.fresh("sload"))

		case evm.SSTORE:
			pop()
			pop()

		case evm.KECCAK256:
			pop()
			pop()
			push(t.fresh("sha3"))

		case evm.ADDRESS, evm.ORIGIN, evm.CALLER, evm.CALLVALUE, evm.GASPRICE,
			evm.COINBASE, evm.TIMESTAMP, evm.NUMBER, evm.PREVRANDAO,
			evm.GASLIMIT, evm.CHAINID, evm.SELFBALANCE, evm.BASEFEE,
			evm.MSIZE, evm.GAS, evm.RETURNDATASIZE, evm.CODESIZE:
			push(t.fresh(op.String()))

		case evm.PC:
			push(t.constUintE(ins.PC))

		case evm.JUMPDEST:
			// no-op

		case evm.POP:
			pop()

		case evm.BALANCE, evm.EXTCODESIZE, evm.EXTCODEHASH, evm.BLOCKHASH:
			pop()
			push(t.fresh(op.String()))

		case evm.CODECOPY, evm.RETURNDATACOPY:
			pop()
			pop()
			pop()

		case evm.EXTCODECOPY:
			pop()
			pop()
			pop()
			pop()

		case evm.CREATE, evm.CREATE2:
			for i := 0; i < pops; i++ {
				pop()
			}
			push(t.fresh("create"))

		case evm.CALL, evm.CALLCODE, evm.DELEGATECALL, evm.STATICCALL:
			for i := 0; i < pops; i++ {
				pop()
			}
			push(t.fresh("callret"))

		case evm.LOG0, evm.LOG0 + 1, evm.LOG0 + 2, evm.LOG0 + 3, evm.LOG4:
			for i := 0; i < pops; i++ {
				pop()
			}

		default:
			// Pure computational opcode: build the application through the
			// interner. Operands land in a scratch array — on an interner
			// hit nothing is allocated; the canonical node's own Args
			// slice backs any recorded event.
			var argArr [3]*Expr
			var e *Expr
			if pops <= len(argArr) {
				for i := 0; i < pops; i++ {
					argArr[i] = pop()
				}
				args := argArr[:pops]
				if t.lim.noIntern {
					e = NewApp(op, append([]*Expr(nil), args...)...)
				} else {
					e = t.it.appN(op, args)
				}
				if tainted(args) {
					t.record(Event{Kind: EvOp, PC: ins.PC, Op: op, Args: e.Args, Guards: guardsSnapshot(st)})
				}
			} else {
				args := make([]*Expr, pops)
				for i := 0; i < pops; i++ {
					args[i] = pop()
				}
				e = t.appE(op, args...)
				if tainted(args) {
					t.record(Event{Kind: EvOp, PC: ins.PC, Op: op, Args: e.Args, Guards: guardsSnapshot(st)})
				}
			}
			if op.StackPushes() > 0 {
				push(e)
			}
		}
	}
	st.pc = nextPC
	return nil, false
}

func tainted(args []*Expr) bool {
	for _, a := range args {
		if a.ContainsCData() {
			return true
		}
	}
	return false
}

// isRevertBlock reports whether the code at pc immediately aborts
// (JUMPDEST followed by a short push sequence ending in REVERT/INVALID).
func (t *tase) isRevertBlock(pc uint64) bool {
	idx, ok := t.program.IndexOf(pc)
	if !ok {
		return false
	}
	for i := idx; i < len(t.program.Instructions) && i < idx+6; i++ {
		op := t.program.Instructions[i].Op
		switch {
		case op == evm.REVERT || op == evm.INVALID:
			return true
		case op == evm.JUMPDEST || op.IsPush() || op.IsDup():
			continue
		default:
			return false
		}
	}
	return false
}

// mload resolves a memory read against word stores and copy regions.
func (t *tase) mload(st *state, addr *Expr) *Expr {
	if av, ok := addr.ConstUint(); ok {
		if v, hit := st.mem[av]; hit {
			return v
		}
		if cp, hit := findCopy(st.copies, av); hit {
			off := t.appE(evm.ADD, cp.src, t.constUintE(av-cp.dst))
			return t.cdataE(off)
		}
		return t.constE(evm.ZeroWord) // untouched memory reads zero
	}
	// Symbolic address: attribute via the constant component.
	if base, ok := linearConst(addr).Uint64(); ok {
		if cp, hit := findCopy(st.copies, base); hit {
			delta := t.appE(evm.SUB, addr, t.constUintE(cp.dst))
			return t.cdataE(t.appE(evm.ADD, cp.src, delta))
		}
	}
	return t.fresh("mem")
}

// findCopy locates the most recent copy region covering the address.
func findCopy(copies []memCopy, addr uint64) (memCopy, bool) {
	for i := len(copies) - 1; i >= 0; i-- {
		cp := copies[i]
		span := uint64(memRegionSpan)
		if lv, ok := cp.ln.ConstUint(); ok && lv > 0 && lv < span {
			span = lv
		}
		if addr >= cp.dst && addr < cp.dst+span {
			return cp, true
		}
	}
	return memCopy{}, false
}

// TraceFunction symbolically executes the contract as if called with the
// given selector and returns the observed events, under the default
// exploration budgets.
func TraceFunction(program *Program, selector [4]byte) Trace {
	return traceFunction(program, selector, defaultLimits())
}

// traceFunction is TraceFunction under caller-supplied limits; it also
// reports exploration counters into the pipeline telemetry. The trace's
// nodes live in a region of their own, never recycled, so the caller may
// keep it.
func traceFunction(program *Program, selector [4]byte, lim limits) Trace {
	tr, t := traceFunctionEngine(program, selector, lim, newRegion())
	finishTASE(t, nil)
	return tr
}

// traceFunctionEngine runs the exploration on reg and returns the finished
// engine alongside the trace, leaving span annotation, counter folding
// and the region's release to the caller. Workers of the parallel
// per-selector path explore concurrently (the engine is goroutine-
// confined), and the merge loop calls annotateTASE/finishTASE in
// deterministic selector order so span trees, telemetry, and wide-event
// accumulation are byte-identical to the sequential run.
func traceFunctionEngine(program *Program, selector [4]byte, lim limits, reg *region) (Trace, *tase) {
	var b [32]byte
	copy(b[:], selector[:])
	selWord := evm.WordFromBytes(b[:])
	t := newTASE(program, &selWord, lim, reg)
	events := t.run()
	return Trace{Selector: selector, Events: events, Truncated: t.trunc}, t
}
