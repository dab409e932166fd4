package pbft

// What checkpointing means to this core (Castro & Liskov §4.3). The engine
// (smr/engine_ckpt.go) owns the cadence, the vote tally, the certificate and
// state transfer; this core supplies the vote's authenticator — a signed
// CHECKPOINT(n, digest), 2f+1 of which make a certificate: without trusted
// counters f of the voters may be Byzantine and a further f unreachable, and
// stability must still be backed by f+1 correct replicas — and releases
// every slot at or below a stable checkpoint. There is no per-peer ordered
// cursor, so GC needs no watermark bookkeeping: a late message for a
// released slot is simply ignored.

import (
	"crypto/sha256"

	"unidir/internal/smr"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// Footprint reports the sizes checkpointing bounds, for tests and
// monitoring (updated at each stable-checkpoint advance).
type Footprint struct {
	StableSeq types.SeqNum // sequence number of the stable checkpoint
	Slots     int          // slot records retained
}

// Footprint returns the replica's log sizes as of the last stable advance.
func (r *Replica) Footprint() Footprint {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.fp
}

func (r *Replica) updateFootprint() {
	fp := Footprint{StableSeq: types.SeqNum(r.eng.Stable().Count), Slots: len(r.slots)}
	r.statsMu.Lock()
	r.fp = fp
	r.statsMu.Unlock()
}

func (r *Replica) handleCheckpoint(from types.ProcessID, n types.SeqNum, payload, sig []byte) {
	if len(payload) == sha256.Size {
		r.eng.CheckpointVote(from, uint64(n), [sha256.Size]byte(payload), sig)
	}
}

// VoteCheckpoint signs and broadcasts a CHECKPOINT; the proof is the
// signature.
func (r orderer) VoteCheckpoint(count uint64, digest [sha256.Size]byte) ([]byte, bool) {
	n := types.SeqNum(count)
	sig := r.sign(kindCheckpoint, n, digest[:])
	_ = transport.Broadcast(r.tr, r.m.Others(r.Self()), encodeMsg(kindCheckpoint, r.view, n, digest[:], sig))
	return sig, true
}

// VerifyCheckpoint checks each vote's signature over CHECKPOINT(n, digest).
func (r orderer) VerifyCheckpoint(cert smr.CkptCert) error {
	for _, v := range cert.Votes {
		if err := r.verify(v.Sender, kindCheckpoint, types.SeqNum(cert.Count), cert.Digest[:], v.Proof); err != nil {
			return err
		}
	}
	return nil
}

func (r orderer) FrameState(resp bool, body []byte) []byte {
	if resp {
		return encodeMsg(kindStateResp, r.view, 0, body, nil)
	}
	return encodeMsg(kindStateFetch, r.view, 0, body, nil)
}

// CheckpointStable releases every slot the stable checkpoint subsumes; after
// an install, execution resumes just past it, and anything already buffered
// above it may now be executable.
func (r orderer) CheckpointStable(_, cert smr.CkptCert, installed bool) {
	for n := range r.slots {
		if uint64(n) <= cert.Count {
			delete(r.slots, n)
		}
	}
	r.mx.openSlots.Set(int64(len(r.slots)))
	r.updateFootprint()
	if installed {
		r.execNext = types.SeqNum(cert.Count) + 1
		r.nextSeq = max(r.nextSeq, types.SeqNum(cert.Count))
		r.progress(r.execNext, r.slot(r.execNext))
	}
}
