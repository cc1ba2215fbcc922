package core

import "testing"

// TestClaimListHas: a claim takes its 32-byte slots only, so an offset
// inside a claim but off its slot grid stays free.
func TestClaimListHas(t *testing.T) {
	const words = 1 << 21 // a 2^21-word static array, as in deepNestedCode(t, 2)
	cs := claimList{
		{off: 4, size: 32},
		{off: 36, size: 3 * 32},
		{off: 132, size: words * 32},
	}
	for _, c := range []struct {
		x    uint64
		want bool
	}{
		{4, true},
		{36, true},
		{68, true},
		{100, true},
		{132, true},
		{132 + (words-1)*32, true},
		{132 + words*32, false}, // one past the last slot
		{0, false},
		{3, false},
		{20, false},  // inside the first claim, misaligned
		{37, false},  // inside the second claim, misaligned
		{150, false}, // inside the array, misaligned
	} {
		if got := cs.has(c.x); got != c.want {
			t.Errorf("has(%d) = %v, want %v", c.x, got, c.want)
		}
	}
}
