package core

import (
	"sigrec/internal/eventlog"
	"sigrec/internal/evm"
	"sigrec/internal/obs"
)

// ExtractSelectors recovers the function ids a contract dispatches on by
// symbolically executing the dispatcher: every EQ comparison between a
// 4-byte constant and an expression derived from CALLDATALOAD(0) via
// DIV/SHR/AND is a dispatch test (§2.2 of the paper). The walk stops at
// each function entry (see dispatchMatch), so it explores the dispatcher
// only, never a function body.
func ExtractSelectors(program *Program) [][4]byte {
	sels, _ := extractSelectors(program, defaultLimits())
	return sels
}

// extractSelectors runs the dispatcher exploration under the given limits
// and additionally reports whether the exploration was truncated (the
// selector list may then be incomplete).
func extractSelectors(program *Program, lim limits) ([][4]byte, bool) {
	return extractSelectorsSpan(program, lim, nil, nil)
}

// extractSelectorsSpan is extractSelectors with the exploration's counters
// attached to sp when tracing is on and folded into the recovery's wide
// event when ev is non-nil.
func extractSelectorsSpan(program *Program, lim limits, sp *obs.Span, ev *eventlog.Event) ([][4]byte, bool) {
	t := newTASE(program, nil, lim, getRegion()) // selWord nil: the selector stays symbolic
	// The selectors are copied out of the events below, so the region can
	// go back to the pool on return.
	defer t.release()
	events := t.run()
	annotateTASE(sp, t, "")
	finishTASE(t, ev)
	var out [][4]byte
	seen := make(map[[4]byte]bool)
	for _, ev := range events {
		if ev.Kind != EvOp || ev.Op != evm.EQ {
			continue
		}
		v, ok := selectorTest(ev.Args[0], ev.Args[1])
		if !ok {
			continue
		}
		var id [4]byte
		id[0] = byte(v >> 24)
		id[1] = byte(v >> 16)
		id[2] = byte(v >> 8)
		id[3] = byte(v)
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out, t.trunc
}

// selectorTest reports whether EQ(a, b) compares a 4-byte constant with the
// call's selector, in either operand order, and returns the constant.
func selectorTest(a, b *Expr) (uint64, bool) {
	c, sel := a, b
	if c.Conc == nil {
		c, sel = sel, c
	}
	if c.Conc == nil || !isSelectorExpr(sel) {
		return 0, false
	}
	v, ok := c.ConstUint()
	return v, ok && v <= 0xffffffff
}

// dispatchMatch recognizes a dispatcher branch: a JUMPI condition that is a
// selectorTest under any number of ISZEROs, so its match side is a function
// entry. It reports whether the jump is taken when the selector does not
// match. The dispatcher walk follows only that side, so it never explores a
// function body; each body gets its own per-selector trace.
func dispatchMatch(cond *Expr) (noMatchTaken, ok bool) {
	for cond.Kind == KindApp && cond.Op == evm.ISZERO {
		cond, noMatchTaken = cond.Args[0], !noMatchTaken
	}
	if cond.Kind != KindApp || cond.Op != evm.EQ {
		return false, false
	}
	_, ok = selectorTest(cond.Args[0], cond.Args[1])
	return noMatchTaken, ok
}

// isSelectorExpr recognizes expressions that extract the high 4 bytes of
// CALLDATALOAD(0): any composition of DIV, SHR, and AND over that load and
// constants.
func isSelectorExpr(e *Expr) bool {
	hasLoad0 := false
	ok := walkSelector(e, &hasLoad0)
	return ok && hasLoad0
}

func walkSelector(e *Expr, hasLoad0 *bool) bool {
	switch e.Kind {
	case KindConst:
		return true
	case KindCData:
		off, ok := e.Args[0].ConstUint()
		if ok && off == 0 {
			*hasLoad0 = true
			return true
		}
		return false
	case KindApp:
		switch e.Op {
		case evm.DIV, evm.SHR, evm.AND:
			for _, a := range e.Args {
				if !walkSelector(a, hasLoad0) {
					return false
				}
			}
			return true
		default:
			return false
		}
	default:
		return false
	}
}
