package health

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestWatchdogTransitions(t *testing.T) {
	reg := obs.NewRegistry()
	w := NewWatchdog(time.Hour) // ticker never fires; drive via RunOnce
	var mu sync.Mutex
	var flips []string
	w.OnTransition(func(sub string, healthy bool, detail string) {
		mu.Lock()
		defer mu.Unlock()
		state := "up"
		if !healthy {
			state = "down:" + detail
		}
		flips = append(flips, sub+" "+state)
	})
	healthy := true
	w.Add("queue", func() Status {
		if healthy {
			return OK()
		}
		return Degraded("queue full")
	})
	w.Add("always", func() Status { return OK() })
	w.Register(reg, "test")
	w.RunOnce() // healthy -> healthy: no flip
	healthy = false
	w.RunOnce() // flip down
	w.RunOnce() // stays down: no second flip
	healthy = true
	w.RunOnce() // flip up

	mu.Lock()
	defer mu.Unlock()
	if len(flips) != 2 || flips[0] != "queue down:queue full" || flips[1] != "queue up" {
		t.Fatalf("flips = %v", flips)
	}
	snap := w.Snapshot()
	if !snap["queue"].Healthy || !snap["always"].Healthy {
		t.Fatalf("snapshot = %+v", snap)
	}
	if v := reg.Snapshot()[`test_watchdog_healthy{subsystem="queue"}`]; v != 1 {
		t.Fatalf("gauge = %v, want 1", v)
	}
}

func TestWatchdogStartStop(t *testing.T) {
	w := NewWatchdog(2 * time.Millisecond)
	var calls sync.WaitGroup
	calls.Add(3)
	var n int
	var mu sync.Mutex
	w.Add("tick", func() Status {
		mu.Lock()
		defer mu.Unlock()
		if n < 3 {
			n++
			calls.Done()
		}
		return OK()
	})
	w.Start()
	calls.Wait()
	w.Stop()
	w.Stop() // idempotent
}

func TestWatchdogStopWithoutStart(t *testing.T) {
	NewWatchdog(0).Stop()
}
