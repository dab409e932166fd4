package minbft

// Crash-restart persistence: the replica's latest stable checkpoint, kept
// as one small file under the data dir and replaced atomically (write to a
// temp file, rename). Only ever written after the checkpoint is stable —
// f+1 attested votes travel inside the file — so whatever a restarted
// replica finds here is verifiable on its own, exactly like a state-transfer
// response from a peer: loadCheckpoint re-runs the same certificate and
// digest checks before trusting the bytes.
//
// The file is deliberately the only replica-owned persistence. The trusted
// counter lives in the device's WAL (trinc.Device.Persist + ctrstore),
// written on the attest path; losing the checkpoint file merely restarts
// the replica further behind (state transfer covers the difference), while
// the counter WAL is what upholds the no-equivocation guarantee across
// restarts.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"

	"unidir/internal/types"
	"unidir/internal/wire"
)

const (
	ckptFileName = "checkpoint.bin"
	ckptMagic    = "unidir/minbft/ckpt/v1"
)

func (r *Replica) ckptPath() string { return filepath.Join(r.dataDir, ckptFileName) }

// persistCheckpoint atomically replaces the on-disk stable checkpoint with
// the current one. Best-effort: a failure leaves the previous file, which
// is stale but safe (the restart just begins further behind).
func (r *Replica) persistCheckpoint() {
	if r.dataDir == "" || r.stable.Count == 0 || r.stableState == nil {
		return
	}
	e := wire.NewEncoder(256 + len(r.stableState))
	e.String(ckptMagic)
	e.Uint64(uint64(r.view))
	encodeCkptCert(e, r.stable)
	e.BytesField(r.stableState)

	tmp := r.ckptPath() + ".tmp"
	if err := os.WriteFile(tmp, e.Bytes(), 0o600); err != nil {
		return
	}
	_ = os.Rename(tmp, r.ckptPath())
}

// loadCheckpoint rehydrates the replica from the data dir, reporting whether
// a checkpoint was installed. A missing file is a fresh start; a corrupt or
// unverifiable file is an error (operator attention beats silently starting
// from empty state with a counter that has already advanced).
func (r *Replica) loadCheckpoint() (bool, error) {
	b, err := os.ReadFile(r.ckptPath())
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("minbft: read checkpoint: %w", err)
	}
	d := wire.NewDecoder(b)
	if magic := d.String(); magic != ckptMagic {
		return false, fmt.Errorf("minbft: checkpoint file magic %q", magic)
	}
	view := types.View(d.Uint64())
	cert, err := decodeCkptCert(d, maxCertVotes)
	if err != nil {
		return false, fmt.Errorf("minbft: decode checkpoint file: %w", err)
	}
	state := append([]byte(nil), d.BytesField()...)
	if err := d.Finish(); err != nil {
		return false, fmt.Errorf("minbft: decode checkpoint file: %w", err)
	}
	if err := r.verifyCkptCertVotes(cert); err != nil {
		return false, fmt.Errorf("minbft: checkpoint file cert: %w", err)
	}
	if sha256.Sum256(state) != cert.Digest {
		return false, fmt.Errorf("minbft: checkpoint file state does not match cert digest")
	}
	if err := r.eng.Restore(state); err != nil {
		return false, fmt.Errorf("minbft: checkpoint file state: %w", err)
	}
	r.view = view
	r.stable = cert
	r.stableState = state
	r.execCount = cert.Count
	// Cursors resume from the certificate's vote attestations, not from
	// wherever they were at crash time: everything at or below a voter's
	// checkpoint attestation is subsumed by the installed state, while
	// messages between the checkpoint and the crash must be re-processed
	// (or re-fetched), which lower cursors arrange naturally.
	for _, v := range cert.Votes {
		if v.UI.Seq > r.lastUI[v.Sender] {
			r.lastUI[v.Sender] = v.UI.Seq
		}
	}
	return true, nil
}
