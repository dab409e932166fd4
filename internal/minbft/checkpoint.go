package minbft

// What checkpointing means to this core. The engine (smr/engine_ckpt.go)
// owns the cadence, the vote tally, the certificate, state transfer and the
// checkpoint file; this core supplies the vote's authenticator — a UI over
// CHECKPOINT(count, digest), f+1 of which make a certificate, because
// trusted counters make every vote self-certifying and one correct voter
// suffices — and releases its own logs when a checkpoint goes stable.
//
// Counting: execCount numbers the batches with at least one fresh (not yet
// executed) request, in total order. Both execution paths (tryExecute and
// the view-change union replay) count by the same rule, and freshness at a
// batch's position is a function of the executed prefix alone, so every
// correct replica agrees on the state at count C — which is what makes a
// digest vote at a count meaningful.
//
// After an install (a state transfer, or the checkpoint file at start) each
// certificate member's UI cursor advances to its checkpoint attestation:
// messages below are subsumed by the state (skipping them is omission, never
// equivocation — the UIs still bind one body per counter value).
//
// Restart: a replica that rehydrated its trusted counter announces RESTART —
// an attested counter-jump notice letting peers disavow
// attested-but-undelivered pre-crash messages and push the current NEW-VIEW
// and stable checkpoint to the rejoiner.

import (
	"crypto/sha256"
	"fmt"

	"unidir/internal/smr"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// ckptBody is the attested body of a CHECKPOINT: the replica's state digest
// after executing count fresh batches.
func ckptBody(count uint64, digest [sha256.Size]byte) []byte {
	e := wire.NewEncoder(48)
	e.Uint64(count)
	e.BytesField(digest[:])
	return e.Bytes()
}

func decodeCkptBody(b []byte) (count uint64, digest [sha256.Size]byte, err error) {
	d := wire.NewDecoder(b)
	count = d.Uint64()
	h := d.BytesField()
	if err := d.Finish(); err != nil {
		return 0, digest, fmt.Errorf("minbft: decode checkpoint: %w", err)
	}
	if len(h) != sha256.Size {
		return 0, digest, fmt.Errorf("minbft: checkpoint digest length %d", len(h))
	}
	copy(digest[:], h)
	return count, digest, nil
}

// Footprint reports the sizes of the logs checkpointing bounds, for tests
// and monitoring. Updated whenever the stable checkpoint advances (post-GC
// values); read via Replica.Footprint.
type Footprint struct {
	StableCount uint64 // execution count of the stable checkpoint
	AcceptedLog int    // accepted-prepare log entries retained
	Entries     int    // per-slot entry records retained
	MsgStore    int    // protocol messages retained for the fetch protocol
}

// Footprint returns the replica's log sizes as of the last stable-checkpoint
// advance.
func (r *Replica) Footprint() Footprint {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.fp
}

func (r *Replica) updateFootprint() {
	n := 0
	for _, bySeq := range r.msgStore {
		n += len(bySeq)
	}
	fp := Footprint{
		StableCount: r.eng.Stable().Count,
		AcceptedLog: len(r.acceptedLog),
		Entries:     len(r.entries),
		MsgStore:    n,
	}
	r.statsMu.Lock()
	r.fp = fp
	r.statsMu.Unlock()
}

// countExecuted advances the fresh-batch execution count after a batch with
// at least one fresh request was applied. Both execution paths (normal case
// and view-change replay) call it under the same rule, keeping the count —
// and therefore the state digest voted at each count — consistent across
// replicas.
func (r *Replica) countExecuted() {
	r.execCount++
	r.eng.Executed(r.execCount)
}

func (r *Replica) handleCheckpoint(from types.ProcessID, msg peerMsg) {
	if count, digest, err := decodeCkptBody(msg.body); err == nil {
		r.eng.CheckpointVote(from, count, digest, msg.ui.Encode())
	}
}

// VoteCheckpoint attests and broadcasts a CHECKPOINT; the proof is its UI.
func (r orderer) VoteCheckpoint(count uint64, digest [sha256.Size]byte) ([]byte, bool) {
	ui, err := r.attestAndSend(kindCheckpoint, ckptBody(count, digest))
	return ui.Encode(), err == nil
}

// VerifyCheckpoint checks that each vote is its sender's UI over
// CHECKPOINT(count, digest), as one batch.
func (r orderer) VerifyCheckpoint(cert smr.CkptCert) error {
	binding := uiBinding(kindCheckpoint, ckptBody(cert.Count, cert.Digest))
	batch := make([]trinc.Attested, 0, len(cert.Votes))
	for _, v := range cert.Votes {
		ui, err := trinc.DecodeAttestation(v.Proof)
		if err != nil || ui.Trinket != v.Sender || ui.Counter != usigCounter {
			return fmt.Errorf("minbft: checkpoint vote of %v is not its UI", v.Sender)
		}
		batch = append(batch, trinc.Attested{Att: ui, Msg: binding})
	}
	return r.ver.CheckMessages(batch)
}

func (r orderer) FrameState(resp bool, body []byte) []byte {
	if resp {
		return encodeEnvelope(kindStateResp, body, nil)
	}
	return encodeEnvelope(kindStateFetch, body, nil)
}

// CheckpointStable garbage-collects everything the new stable checkpoint
// subsumes:
//
//   - the fetch message store below the *previous* certificate's vote
//     attestations — a two-interval window, so moderately lagging peers can
//     still gap-fill directly while memory stays bounded;
//   - accepted-prepare log entries whose every request is stale — their
//     effects (and the dedup entries guarding re-execution) travel inside the
//     checkpoint, so view changes no longer need them;
//   - executed per-slot entries and their prepOrder prefix.
//
// After an install it also skips each certificate member's cursor to its
// vote, and installs a NEW-VIEW that was waiting for the state.
func (r orderer) CheckpointStable(prev, cert smr.CkptCert, installed bool) {
	for _, v := range prev.Votes {
		if ui, err := trinc.DecodeAttestation(v.Proof); err == nil && ui.Seq > r.gcVoteSeqs[v.Sender] {
			r.gcVoteSeqs[v.Sender] = ui.Seq
		}
	}
	for p, watermark := range r.gcVoteSeqs {
		for s := range r.msgStore[p] {
			if s <= watermark {
				delete(r.msgStore[p], s)
			}
		}
	}
	kept := make([]logEntry, 0, len(r.acceptedLog))
	for _, le := range r.acceptedLog {
		if r.eng.AnyFresh(le.Reqs) {
			kept = append(kept, le)
		}
	}
	r.acceptedLog = kept
	if r.execIdx > 0 {
		for _, key := range r.prepOrder[:r.execIdx] {
			delete(r.entries, key)
			if key.view == r.view && key.seq > r.gcSeqFloor {
				r.gcSeqFloor = key.seq
			}
		}
		// orderBase keeps the positions queued leased reads wait for
		// (orderer.ReadPoint) where they were while the slice is cut.
		r.orderBase += uint64(r.execIdx)
		r.prepOrder = append([]entryKey(nil), r.prepOrder[r.execIdx:]...)
		r.execIdx = 0
	}
	if installed {
		r.execCount = cert.Count
		for _, v := range cert.Votes {
			ui, err := trinc.DecodeAttestation(v.Proof)
			if err != nil || ui.Seq <= r.lastUI[v.Sender] {
				continue
			}
			for s := range r.uiBuffer[v.Sender] {
				if s <= ui.Seq {
					delete(r.uiBuffer[v.Sender], s)
				}
			}
			r.lastUI[v.Sender] = ui.Seq
		}
		for _, v := range cert.Votes {
			r.drainBuffer(v.Sender)
		}
		if r.pendingNV != nil && r.pendingNV.NewView > r.view {
			nv, raw := *r.pendingNV, r.pendingNVRaw
			r.pendingNV, r.pendingNVRaw = nil, nil
			r.installView(nv, raw)
		}
	}
	r.updateFootprint()
}

// --- restart ---

// restart body: the execution count the rejoiner restored to
// (informational; the attested kind is what matters).
func encodeRestartBody(count uint64) []byte {
	e := wire.NewEncoder(8)
	e.Uint64(count)
	return e.Bytes()
}

func decodeRestartBody(b []byte) (uint64, error) {
	d := wire.NewDecoder(b)
	count := d.Uint64()
	if err := d.Finish(); err != nil {
		return 0, fmt.Errorf("minbft: decode restart: %w", err)
	}
	return count, nil
}

// sendRestart announces an attested counter jump after a crash-restart:
// receivers advance their cursor for us past any attested-but-undelivered
// pre-crash messages (which would otherwise stall their per-peer ordered
// processing forever) and push the current NEW-VIEW and stable checkpoint
// back to help us rejoin.
func (r *Replica) sendRestart() {
	r.mx.trace.Record("restart", "announcing restart at count %d", r.execCount)
	_, _ = r.attestAndSend(kindRestart, encodeRestartBody(r.execCount))
}

func (r *Replica) handleRestart(from types.ProcessID, msg peerMsg) {
	count, err := decodeRestartBody(msg.body)
	if err != nil {
		return
	}
	// Help the rejoiner: current view evidence, then current state.
	if r.lastNVRaw != nil {
		_ = r.tr.Send(from, encodeEnvelope(kindFetchResp, r.lastNVRaw, nil))
	}
	r.eng.ServeState(from, count+1)
}
