package pram

import "testing"

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int64{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := Log2Ceil(n); got != want {
			t.Errorf("Log2Ceil(%d)=%d want %d", n, got, want)
		}
	}
}

func TestChargeAccounting(t *testing.T) {
	m := NewMachine(10)
	m.Charge(10, 100)
	m.Charge(0, 5)
	m.Charge(-3, -4) // negative components are ignored, the step still counts
	if m.Depth() != 10 || m.Work() != 105 || m.Steps() != 3 {
		t.Fatalf("depth=%d work=%d steps=%d want 10/105/3", m.Depth(), m.Work(), m.Steps())
	}
	m.Reset()
	if m.Depth() != 0 || m.Work() != 0 || m.Steps() != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

func TestSetProcsConcurrentWithCharges(t *testing.T) {
	// SetProcs while another goroutine charges must be race-free (run under
	// -race) and never produce a non-positive budget.
	m := NewMachine(3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := 1; p <= 100; p++ {
			m.SetProcs(p)
		}
	}()
	for i := 0; i < 50; i++ {
		if m.Procs() < 1 {
			t.Fatalf("procs=%d", m.Procs())
		}
		m.Charge(1, int64(m.Procs()))
	}
	<-done
	if m.Procs() != 100 || m.Steps() != 50 {
		t.Fatalf("procs=%d steps=%d want 100/50", m.Procs(), m.Steps())
	}
}

func TestSetProcs(t *testing.T) {
	m := NewMachine(0)
	if m.Procs() != 1 {
		t.Fatalf("default procs=%d", m.Procs())
	}
	m.SetProcs(5)
	if m.Procs() != 5 {
		t.Fatalf("procs=%d want 5", m.Procs())
	}
	m.SetProcs(-2)
	if m.Procs() != 1 {
		t.Fatalf("procs=%d after SetProcs(-2), want 1", m.Procs())
	}
}
