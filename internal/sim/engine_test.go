package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInOrder(t *testing.T) {
	e := NewEngine()
	var got []float64
	e.At(3, func() { got = append(got, e.Now()) })
	e.At(1, func() { got = append(got, e.Now()) })
	e.At(2, func() { got = append(got, e.Now()) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("final time = %g, want 3", end)
	}
	want := []float64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %g, want %g", i, got[i], want[i])
		}
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var got []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		e.At(5, func() { got = append(got, name) })
	}
	e.Run()
	want := []string{"first", "second", "third"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineAfterAccumulates(t *testing.T) {
	e := NewEngine()
	var at float64
	e.After(2, func() {
		e.After(3, func() { at = e.Now() })
	})
	e.Run()
	if at != 5 {
		t.Fatalf("nested event fired at %g, want 5", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, nil)
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	NewEngine().After(-1, nil)
}

func TestEnginePending(t *testing.T) {
	e := NewEngine()
	a := e.At(1, nil)
	e.At(2, nil)
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	a.Cancel()
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", got)
	}
}

// Property: events fire in nondecreasing time order regardless of insertion
// order.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		count := int(n%50) + 1
		var fired []float64
		for i := 0; i < count; i++ {
			e.At(r.Float64()*100, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		return sort.Float64sAreSorted(fired) && len(fired) == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Pending reports the number of not-yet-cancelled events in the queue.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.cancelled {
			n++
		}
	}
	return n
}
