package smr

import (
	"errors"
	"testing"
	"time"
)

func TestBatchTriggerCutsImmediatelyAtLightLoad(t *testing.T) {
	tr := NewBatchTrigger(64, 100*time.Microsecond)
	base := time.Now()
	// 1ms inter-arrival gap: ~0.1 expected arrivals per deadline — far below
	// the gain threshold, so waiting can never amortize anything.
	for i := 0; i < 20; i++ {
		tr.Arrive(base.Add(time.Duration(i) * time.Millisecond))
	}
	now := base.Add(20 * time.Millisecond)
	if w := tr.Wait(1, 1, now, now); w != 0 {
		t.Fatalf("light load wait = %v, want 0", w)
	}
}

func TestBatchTriggerWaitsAtHighLoad(t *testing.T) {
	const deadline = 100 * time.Microsecond
	tr := NewBatchTrigger(64, deadline)
	base := time.Now()
	// 2µs gaps: 50 expected arrivals per deadline — worth holding the batch.
	for i := 0; i < 100; i++ {
		tr.Arrive(base.Add(time.Duration(i) * 2 * time.Microsecond))
	}
	now := base.Add(200 * time.Microsecond)
	w := tr.Wait(4, 1, now, now)
	if w <= 0 || w > deadline {
		t.Fatalf("high load wait = %v, want in (0, %v]", w, deadline)
	}
	// The same batch that has already waited past the deadline must cut.
	if w := tr.Wait(4, 1, now.Add(-2*deadline), now); w != 0 {
		t.Fatalf("expired deadline wait = %v, want 0", w)
	}
	// A full batch always cuts.
	if w := tr.Wait(64, 1, now, now); w != 0 {
		t.Fatalf("full batch wait = %v, want 0", w)
	}
	// An idle consensus pipeline always cuts: holding the batch back cannot
	// amortize anything an idle proposal slot would not.
	if w := tr.Wait(4, 0, now, now); w != 0 {
		t.Fatalf("idle pipeline wait = %v, want 0", w)
	}
}

func TestBatchTriggerDisabled(t *testing.T) {
	tr := NewBatchTrigger(64, 0)
	base := time.Now()
	for i := 0; i < 100; i++ {
		tr.Arrive(base.Add(time.Duration(i) * time.Microsecond))
	}
	now := base.Add(time.Millisecond)
	if w := tr.Wait(1, 1, now, now); w != 0 {
		t.Fatalf("disabled trigger wait = %v, want 0", w)
	}
}

func TestBatchTriggerRecoversAfterIdle(t *testing.T) {
	tr := NewBatchTrigger(64, 100*time.Microsecond)
	base := time.Now()
	for i := 0; i < 100; i++ {
		tr.Arrive(base.Add(time.Duration(i) * 2 * time.Microsecond))
	}
	// A long idle period must pull the rate estimate back down quickly: the
	// first few arrivals after the gap should cut immediately again.
	late := base.Add(5 * time.Second)
	for i := 0; i < 10; i++ {
		tr.Arrive(late.Add(time.Duration(i) * 10 * time.Millisecond))
	}
	now := late.Add(100 * time.Millisecond)
	if w := tr.Wait(1, 1, now, now); w != 0 {
		t.Fatalf("post-idle wait = %v, want 0", w)
	}
}

func TestAdmissionPendingBound(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxPending: 8})
	now := time.Now()
	if !a.Admit(1, 7, now) {
		t.Fatal("under the bound refused")
	}
	if a.Admit(1, 8, now) {
		t.Fatal("at the bound admitted")
	}
	if a.Admit(1, 9000, now) {
		t.Fatal("far past the bound admitted")
	}
}

func TestAdmissionTokenBucket(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Rate: 1000, Burst: 2})
	now := time.Now()
	if !a.Admit(7, 0, now) || !a.Admit(7, 0, now) {
		t.Fatal("burst refused")
	}
	if a.Admit(7, 0, now) {
		t.Fatal("admitted past the burst with no refill time")
	}
	// Another client has its own bucket.
	if !a.Admit(8, 0, now) {
		t.Fatal("fresh client refused")
	}
	// 1000/s refills one token per millisecond.
	if !a.Admit(7, 0, now.Add(2*time.Millisecond)) {
		t.Fatal("refilled token refused")
	}
}

func TestAdmissionNilAndZero(t *testing.T) {
	var nilA *Admission
	if !nilA.Admit(1, 1<<30, time.Now()) {
		t.Fatal("nil admission must admit everything")
	}
	zero := NewAdmission(AdmissionConfig{})
	if !zero.Admit(1, 1<<30, time.Now()) {
		t.Fatal("zero config must admit everything")
	}
}

func TestReplyCodeRoundTrip(t *testing.T) {
	rep := Reply{Replica: 2, Client: 9, Num: 4, Code: ReplyOverloaded}
	got, err := DecodeReply(rep.Encode())
	if err != nil {
		t.Fatalf("DecodeReply: %v", err)
	}
	if got.Code != ReplyOverloaded || got.Client != 9 || got.Num != 4 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestErrOverloadedIsRetryable(t *testing.T) {
	// The wrapped form replicas and pipelines return must stay matchable.
	err := errorsJoinLike()
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("errors.Is(%v, ErrOverloaded) = false", err)
	}
}

func errorsJoinLike() error {
	return &wrapped{ErrOverloaded}
}

type wrapped struct{ inner error }

func (w *wrapped) Error() string { return "shed: " + w.inner.Error() }
func (w *wrapped) Unwrap() error { return w.inner }
