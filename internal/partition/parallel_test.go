package partition

import (
	"errors"
	"testing"
	"time"
)

var (
	errLeft  = errors.New("left failed")
	errRight = errors.New("right failed")
)

// TestJoinSerialStopsAfterLeftError: with no slot to spare, Join runs the
// branches in order on the caller, and a failed left branch skips right.
func TestJoinSerialStopsAfterLeftError(t *testing.T) {
	var lim Limiter // nil: strictly serial
	rightRan := false
	err := lim.Join(func() error { return errLeft }, func() error {
		rightRan = true
		return nil
	})
	if !errors.Is(err, errLeft) {
		t.Fatalf("err = %v, want %v", err, errLeft)
	}
	if rightRan {
		t.Fatal("right ran after left failed on a serial Join")
	}

	var order []string
	err = lim.Join(func() error {
		order = append(order, "left")
		return nil
	}, func() error {
		order = append(order, "right")
		return errRight
	})
	if !errors.Is(err, errRight) {
		t.Fatalf("err = %v, want %v", err, errRight)
	}
	if len(order) != 2 || order[0] != "left" || order[1] != "right" {
		t.Fatalf("serial order = %v, want [left right]", order)
	}
}

// TestJoinUsesSpareSlot: with a free slot, right runs concurrently with
// left (left waits for a signal only right can send), both branches run
// even when left fails, left's error wins, and the slot is free again once
// Join returns.
func TestJoinUsesSpareSlot(t *testing.T) {
	lim := NewLimiter(2) // one spare slot

	rightStarted := make(chan struct{})
	rightRan := false
	err := lim.Join(func() error {
		select {
		case <-rightStarted:
		case <-time.After(10 * time.Second):
			t.Error("right did not run concurrently with left")
		}
		return errLeft
	}, func() error {
		rightRan = true
		close(rightStarted)
		return errRight
	})
	if !errors.Is(err, errLeft) {
		t.Fatalf("err = %v, want left's error %v", err, errLeft)
	}
	if !rightRan {
		t.Fatal("right did not run")
	}
	if len(lim) != 0 {
		t.Fatalf("%d slot(s) still held after Join returned", len(lim))
	}

	err = lim.Join(func() error { return nil }, func() error { return errRight })
	if !errors.Is(err, errRight) {
		t.Fatalf("err = %v, want right's error %v", err, errRight)
	}
	if len(lim) != 0 {
		t.Fatalf("%d slot(s) still held after Join returned", len(lim))
	}
}
