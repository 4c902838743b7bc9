package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/racedetect"
)

func TestAdmissionNilAdmitsEverything(t *testing.T) {
	var a *Admission
	release, err := a.Admit(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	release()
	if st := a.Stats(); st.Admitted != 0 {
		t.Fatalf("nil stats = %+v", st)
	}
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, RetryAfterHint: 7 * time.Second})
	ctx := context.Background()

	release1, err := a.Admit(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	// Second request queues; it must be granted once release1 runs.
	granted := make(chan error, 1)
	go func() {
		release2, err := a.Admit(ctx, "b")
		if err == nil {
			defer release2()
		}
		granted <- err
	}()
	// Wait until the waiter is actually queued so the third arrival sees
	// a full queue deterministically.
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Third request: in-flight full, queue full -> shed with the hint.
	_, err = a.Admit(ctx, "c")
	var ref *Refusal
	if !errors.As(err, &ref) || !errors.Is(err, ErrShed) {
		t.Fatalf("want shed refusal, got %v", err)
	}
	if ref.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %v, want 7s", ref.RetryAfter)
	}

	release1()
	if err := <-granted; err != nil {
		t.Fatalf("queued request not granted: %v", err)
	}
	st := a.Stats()
	if st.Admitted != 2 || st.Shed != 1 || st.Queued != 1 {
		t.Fatalf("stats = %+v, want admitted=2 shed=1 queued=1", st)
	}
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("gauges not drained: %+v", st)
	}
}

func TestAdmissionQueuedWaiterHonoursContext(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 4})
	release, err := a.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Admit(ctx, "b")
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	release()
	st := a.Stats()
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("gauges not drained after cancel: %+v", st)
	}
	// The slot is still usable.
	release2, err := a.Admit(context.Background(), "c")
	if err != nil {
		t.Fatal(err)
	}
	release2()
}

func TestAdmissionRateLimitBeforeQueue(t *testing.T) {
	clk := newFakeClock()
	a := NewAdmission(AdmissionConfig{
		Limiter:     LimiterConfig{Rate: 1, Burst: 1, Clock: clk.now},
		MaxInFlight: 8,
		MaxQueue:    8,
	})
	ctx := context.Background()
	release, err := a.Admit(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	release()
	_, err = a.Admit(ctx, "a")
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("want rate-limit refusal, got %v", err)
	}
	var ref *Refusal
	if !errors.As(err, &ref) || ref.RetryAfter <= 0 {
		t.Fatalf("refusal carries no Retry-After: %v", err)
	}
	st := a.Stats()
	if st.Limited != 1 || st.Admitted != 1 {
		t.Fatalf("stats = %+v, want limited=1 admitted=1", st)
	}
}

// TestAdmissionHammer is the race-detector hammer for the admission
// path: 64 goroutines across 8 client identities drive the limiter and
// shedder concurrently, and the controller's counters must account for
// every single request exactly — admitted + shed + limited == issued —
// with both gauges drained at the end. Runs under CI's -race job.
func TestAdmissionHammer(t *testing.T) {
	const (
		goroutines = 64
		perG       = 50
		identities = 8
	)
	a := NewAdmission(AdmissionConfig{
		// A generous refilling bucket so all three outcomes occur.
		Limiter:     LimiterConfig{Rate: 500, Burst: 40},
		MaxInFlight: 6,
		MaxQueue:    6,
	})
	var admitted, shed, limited atomic.Int64
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := fmt.Sprintf("client-%d", g%identities)
			for i := 0; i < perG; i++ {
				release, err := a.Admit(ctx, client)
				switch {
				case err == nil:
					admitted.Add(1)
					// A tiny critical section keeps slots contended so
					// the queue and shedding paths are exercised.
					time.Sleep(50 * time.Microsecond)
					release()
				case errors.Is(err, ErrShed):
					shed.Add(1)
				case errors.Is(err, ErrRateLimited):
					limited.Add(1)
				default:
					t.Errorf("unexpected admission error: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()

	total := int64(goroutines * perG)
	if admitted.Load()+shed.Load()+limited.Load() != total {
		t.Fatalf("outcomes %d+%d+%d != %d issued",
			admitted.Load(), shed.Load(), limited.Load(), total)
	}
	st := a.Stats()
	if st.Admitted != admitted.Load() {
		t.Errorf("controller admitted %d, callers saw %d", st.Admitted, admitted.Load())
	}
	if st.Shed != shed.Load() {
		t.Errorf("controller shed %d, callers saw %d", st.Shed, shed.Load())
	}
	if st.Limited != limited.Load() {
		t.Errorf("controller limited %d, callers saw %d", st.Limited, limited.Load())
	}
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Errorf("gauges not drained: in_flight=%d queue_depth=%d", st.InFlight, st.QueueDepth)
	}
	if admitted.Load() == 0 || shed.Load() == 0 {
		t.Errorf("hammer did not exercise both paths: admitted=%d shed=%d",
			admitted.Load(), shed.Load())
	}
}

// TestAdmitReleaseAllocations pins the free-slot path — limiter, in-flight
// gate and release — at zero allocations: hot_zipf's front door runs it
// on every request (benchmark/workloads.go's admissionConfig).
func TestAdmitReleaseAllocations(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	a := NewAdmission(AdmissionConfig{
		Limiter:     LimiterConfig{Rate: 1_000_000, Burst: 1024},
		MaxInFlight: 8,
		MaxQueue:    32,
	})
	ctx := context.Background()
	got := testing.AllocsPerRun(1000, func() {
		release, err := a.Admit(ctx, "client-0")
		if err != nil {
			t.Fatal(err)
		}
		release()
	})
	if got != 0 {
		t.Fatalf("Admit + release allocates %.0f times, want 0", got)
	}
}
