// Package srb defines sequenced reliable broadcast — the paper's yardstick
// primitive for trusted-log hardware — together with machine-checkable
// versions of its four defining properties, evaluated over recorded
// executions by the Recorder harness.
//
// Definition (paper, §3.1). A designated sender p broadcasts messages with
// unique sequence numbers such that:
//
//  1. Weak termination: if p is correct, every correct process eventually
//     delivers every message p broadcasts.
//  2. Strong termination (totality): if some correct process delivers m with
//     sequence number k from p, eventually every correct process does.
//  3. Sequencing: a correct process delivers (k, m) from p only after
//     delivering sequence numbers 1..k-1 from p.
//  4. Integrity: if a correct process delivers m from p, then p broadcast m
//     earlier.
//
// Four implementations are provided in subpackages:
//
//   - uniround: from unidirectional rounds with n >= 2t+1 (Algorithm 1 —
//     the paper's main construction, §4.2);
//   - trincsrb and a2msrb: from a trusted log, TrInc counters or A2M logs.
//     Both are adapters over one Sequencer (SRB from an attested sequencer),
//     which is the classification's claim in code: a trusted log buys SRB;
//   - bracha: from nothing but authenticated channels with n >= 3f+1
//     (Bracha reliable broadcast with sequence numbers — the classic
//     baseline showing what non-equivocation buys).
//
// Each implementation exposes a Node: one process's participation in the
// full set of SRB instances, one instance per sender in the membership (the
// shape both the TrInc-from-SRB theorem and the SMR applications need).
//
// trincsrb, a2msrb and bracha are each a Core, a step function without I/O
// or goroutines: Runner drives one from a transport, and a test scheduler can
// step it directly. uniround is not a Core: it drives a rounds.System from
// goroutines of its own. The round protocols beneath it are rounds.Core step
// functions, run by one rounds.Runner.
package srb

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"

	"unidir/internal/types"
)

// Delivery is one delivered broadcast message.
type Delivery struct {
	Sender types.ProcessID
	Seq    types.SeqNum
	Data   []byte
}

// Node is one process's participation in a membership-wide set of SRB
// instances (one per sender).
type Node interface {
	// Self returns this process's ID.
	Self() types.ProcessID
	// Broadcast sends data as the next message of this process's own
	// instance and returns the sequence number it was assigned.
	Broadcast(data []byte) (types.SeqNum, error)
	// Deliver returns the next delivery (from any sender), blocking until
	// one is available, ctx is done, or the node is closed.
	Deliver(ctx context.Context) (Delivery, error)
	// Close stops the node's goroutines and unblocks Deliver.
	Close() error
}

// Recorder collects the broadcasts and deliveries of an execution across
// all processes so the four SRB properties can be checked afterwards. It is
// safe for concurrent use.
type Recorder struct {
	mu         sync.Mutex
	broadcasts map[types.ProcessID][]Delivery // by sender (Seq as assigned)
	deliveries map[types.ProcessID][]Delivery // by delivering process, in order
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		broadcasts: make(map[types.ProcessID][]Delivery),
		deliveries: make(map[types.ProcessID][]Delivery),
	}
}

// Broadcast records that sender broadcast (seq, data).
func (r *Recorder) Broadcast(sender types.ProcessID, seq types.SeqNum, data []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.broadcasts[sender] = append(r.broadcasts[sender], Delivery{Sender: sender, Seq: seq, Data: data})
}

// Deliver records that process p delivered d.
func (r *Recorder) Deliver(p types.ProcessID, d Delivery) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deliveries[p] = append(r.deliveries[p], d)
}

// CheckSequencing verifies property 3 for every process in correct: each
// process's deliveries from each sender carry sequence numbers 1, 2, 3, ...
// in delivery order.
func (r *Recorder) CheckSequencing(correct []types.ProcessID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range correct {
		next := make(map[types.ProcessID]types.SeqNum)
		for _, d := range r.deliveries[p] {
			want := next[d.Sender] + 1
			if d.Seq != want {
				return fmt.Errorf("srb: %v delivered seq %d from %v, expected %d", p, d.Seq, d.Sender, want)
			}
			next[d.Sender] = want
		}
	}
	return nil
}

// CheckAgreement verifies that no two correct processes delivered different
// data for the same (sender, seq) — the safety consequence of properties
// 2-4 that applications rely on.
func (r *Recorder) CheckAgreement(correct []types.ProcessID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[key][]byte)
	for _, p := range correct {
		for _, d := range r.deliveries[p] {
			if prev, ok := seen[d.key()]; ok && !bytes.Equal(prev, d.Data) {
				return fmt.Errorf("srb: conflicting deliveries for (%v, %d): %q vs %q", d.Sender, d.Seq, prev, d.Data)
			}
			seen[d.key()] = d.Data
		}
	}
	return nil
}

// CheckIntegrity verifies property 4 against the recorded broadcasts of
// correct senders: every delivery from a correct sender matches a recorded
// broadcast.
func (r *Recorder) CheckIntegrity(correct []types.ProcessID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	isCorrect := members(correct)
	for _, p := range correct {
		for _, d := range r.deliveries[p] {
			if isCorrect[d.Sender] && !r.broadcast(d) {
				return fmt.Errorf("srb: %v delivered (%d, %q) from %v, which was never broadcast", p, d.Seq, d.Data, d.Sender)
			}
		}
	}
	return nil
}

// broadcast reports whether d's sender broadcast d.Data at d.Seq.
func (r *Recorder) broadcast(d Delivery) bool {
	for _, b := range r.broadcasts[d.Sender] {
		if b.Seq == d.Seq && bytes.Equal(b.Data, d.Data) {
			return true
		}
	}
	return false
}

// CheckTermination verifies properties 1 and 2 at quiescence: every correct
// process delivered the same (sender, seq) set, and that set includes every
// broadcast of every correct sender. Equivalently, each correct process
// delivered everything any correct process delivered or broadcast.
func (r *Recorder) CheckTermination(correct []types.ProcessID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	isCorrect := members(correct)
	want := make(map[key]bool)
	for sender, bs := range r.broadcasts {
		for _, b := range bs {
			if isCorrect[sender] {
				want[b.key()] = true
			}
		}
	}
	for _, p := range correct {
		for _, d := range r.deliveries[p] {
			want[d.key()] = true
		}
	}
	for _, p := range correct {
		got := make(map[key]bool, len(want))
		for _, d := range r.deliveries[p] {
			got[d.key()] = true
		}
		for k := range want {
			if !got[k] {
				return fmt.Errorf("srb: correct %v never delivered (%v, %d)", p, k.sender, k.seq)
			}
		}
	}
	return nil
}

// CheckAll runs all four property checks.
func (r *Recorder) CheckAll(correct []types.ProcessID) error {
	sorted := append([]types.ProcessID(nil), correct...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, check := range []func([]types.ProcessID) error{r.CheckSequencing, r.CheckAgreement, r.CheckIntegrity, r.CheckTermination} {
		if err := check(sorted); err != nil {
			return err
		}
	}
	return nil
}

// key names one broadcast: its sender and sequence number.
type key struct {
	sender types.ProcessID
	seq    types.SeqNum
}

func (d Delivery) key() key { return key{d.Sender, d.Seq} }

func members(ps []types.ProcessID) map[types.ProcessID]bool {
	set := make(map[types.ProcessID]bool, len(ps))
	for _, p := range ps {
		set[p] = true
	}
	return set
}
