package smr

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"

	"unidir/internal/obs"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// The checkpoint plane against the scripted core of engine_test.go: replica 0
// of three, a certificate takes two votes, a checkpoint every two positions.

const ckptEvery = 2

func ckptRig(t *testing.T, dir string) *rig {
	net := &fakeNet{}
	return newRigOn(t, net, net, dir, EngineConfig{CheckpointInterval: ckptEvery})
}

// execute applies one fresh request and reports the position to the engine;
// on a boundary the engine checkpoints. It returns the digest of the state
// at pos.
func (r *rig) execute(pos uint64) [32]byte {
	r.Replay([]Request{put(7, pos)})
	digest := sha256.Sum256(r.Snapshot())
	r.Executed(pos)
	return digest
}

func (r *rig) vote(from types.ProcessID, count uint64, digest [32]byte) {
	r.CheckpointVote(from, count, digest, proof(from))
}

// stableAt runs r to a stable checkpoint at position 2 with peer 1's vote.
func (r *rig) stableAt2() [32]byte {
	r.execute(1)
	d := r.execute(2)
	r.vote(1, 2, d)
	if r.Stable().Count != 2 {
		r.t.Fatalf("no stable checkpoint at 2: %+v", r.Stable())
	}
	r.net.take()
	return d
}

// fetches returns the STATE-FETCH positions among frames, per destination.
func fetches(t *testing.T, frames []sentFrame) map[types.ProcessID]uint64 {
	t.Helper()
	out := make(map[types.ProcessID]uint64)
	for _, f := range frames {
		if f.payload[0] != 'F' {
			t.Fatalf("frame to %v is not a fetch: %q", f.to, f.payload)
		}
		d := wire.NewDecoder(f.payload[1:])
		out[f.to] = d.Uint64()
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestEngineCkptQuorum(t *testing.T) {
	r := ckptRig(t, "")
	r.execute(1)
	if len(r.core.voted) != 0 {
		t.Fatalf("voted off the boundary: %v", r.core.voted)
	}
	d := r.execute(2)
	if len(r.core.voted) != 1 || r.core.voted[0] != 2 || r.Stable().Count != 0 {
		t.Fatalf("at the boundary: voted %v, stable %+v; want one vote and nothing stable (1 of 2)", r.core.voted, r.Stable())
	}
	r.vote(1, 2, d)
	cert := r.Stable()
	if cert.Count != 2 || cert.Digest != d || len(cert.Votes) != 2 {
		t.Fatalf("stable %+v, want position 2 with two votes", cert)
	}
	if len(r.core.stables) != 1 || r.core.stables[0].installed || r.core.stables[0].prev.Count != 0 {
		t.Fatalf("stable hook: %+v", r.core.stables)
	}
	if len(r.ckptOwn) != 0 || len(r.ckptTally) != 0 {
		t.Fatalf("kept %d snapshots and %d tallies past stability", len(r.ckptOwn), len(r.ckptTally))
	}
	if r.counter("checkpoints_taken_total") != 1 || r.counter("checkpoints_stable_total") != 1 {
		t.Fatal("checkpoint series")
	}
	var st obs.Status
	r.FillStatus(&st)
	if st.ExecCount != 2 || st.Checkpoint == nil || st.Checkpoint.Count != 2 {
		t.Fatalf("status: exec %d, checkpoint %+v", st.ExecCount, st.Checkpoint)
	}
}

func TestEngineCkptDuplicateVoter(t *testing.T) {
	r := ckptRig(t, "")
	var d [32]byte
	r.vote(1, 2, d)
	r.vote(1, 2, d) // one voter, however often it votes
	if got := r.net.take(); len(got) != 0 {
		t.Fatalf("a single voter made a quorum: sent %d frames", len(got))
	}
	r.vote(2, 2, d)
	if got := fetches(t, r.net.take()); len(got) != 2 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("two voters ahead of execution: fetches %v", got)
	}
}

func TestEngineCkptOffBoundary(t *testing.T) {
	r := ckptRig(t, "")
	var d [32]byte
	r.vote(1, 3, d)
	r.vote(2, 3, d)
	if got := r.net.take(); len(got) != 0 || r.Fetching() {
		t.Fatalf("acted on an off-boundary quorum: %d frames", len(got))
	}
}

func TestEngineCkptDigestSplit(t *testing.T) {
	r := ckptRig(t, "")
	r.execute(1)
	d := r.execute(2)
	other := d
	other[0] ^= 1
	r.vote(1, 2, other)
	if r.Stable().Count != 0 {
		t.Fatal("two votes on two digests made a certificate")
	}
	r.vote(2, 2, d)
	if cert := r.Stable(); len(cert.Votes) != 2 || cert.Votes[0].Sender == 1 || cert.Votes[1].Sender == 1 {
		t.Fatalf("certificate %+v, want the votes of 0 and 2 only", cert)
	}

	r = ckptRig(t, "")
	r.execute(1)
	r.execute(2)
	r.vote(1, 2, other)
	r.vote(2, 2, other) // a quorum on a state this replica does not hold
	if r.Stable().Count != 0 || r.Fetching() {
		t.Fatalf("adopted a digest it cannot produce: %+v", r.Stable())
	}
	r.vote(2, 2, d) // a second vote from 2 is a duplicate, whatever it says
	if r.Stable().Count != 0 {
		t.Fatal("a voter counted twice")
	}
}

func TestEngineCkptFetchAndRetry(t *testing.T) {
	r := ckptRig(t, "")
	var d [32]byte
	r.vote(1, 4, d)
	r.vote(2, 4, d)
	if got := fetches(t, r.net.take()); len(got) != 2 || got[1] != 4 || !r.Fetching() {
		t.Fatalf("quorum beyond execution: fetches %v, fetching %v", got, r.Fetching())
	}
	if len(r.core.armed) != 1 || r.core.armed[0] != stateFetchRetry {
		t.Fatalf("armed %v, want one retry timer", r.core.armed)
	}
	r.clock.Advance(stateFetchRetry / 2)
	r.timerFired() // some other engine deadline
	if got := r.net.take(); len(got) != 0 {
		t.Fatalf("re-fetched early: %d frames", len(got))
	}
	r.clock.Advance(stateFetchRetry / 2)
	r.timerFired()
	if got := fetches(t, r.net.take()); len(got) != 2 || got[2] != 4 {
		t.Fatalf("retry: fetches %v", got)
	}
	// Execution reaching the target ends the fetch, and its timer with it.
	for pos := uint64(1); pos <= 4; pos++ {
		r.execute(pos)
	}
	r.net.take()
	r.clock.Advance(stateFetchRetry)
	r.timerFired()
	if got := r.net.take(); len(got) != 0 || r.Fetching() {
		t.Fatalf("fetching after catching up: %d frames", len(got))
	}
}

// stateResp is a STATE-RESP body.
func stateResp(cert CkptCert, state []byte) []byte {
	e := wire.NewEncoder(0)
	encodeStable(e, cert, state)
	return e.Bytes()
}

func TestEngineCkptInstall(t *testing.T) {
	a := ckptRig(t, "")
	d := a.stableAt2()
	a.HandleStateFetch(7, fetchBody(2)) // a client
	a.HandleStateFetch(1, fetchBody(4)) // beyond the stable checkpoint
	if got := a.net.take(); len(got) != 0 {
		t.Fatalf("served %d unwanted responses", len(got))
	}
	a.HandleStateFetch(1, fetchBody(2))
	frames := a.net.take()
	if len(frames) != 1 || frames[0].to != 1 || frames[0].payload[0] != 'R' {
		t.Fatalf("served %+v", frames)
	}
	body := frames[0].payload[1:]
	cert, state := a.Stable(), a.stableState

	forged := func(mut func(*CkptCert)) CkptCert {
		c := cert
		c.Votes = append([]CkptVote(nil), cert.Votes...)
		mut(&c)
		return c
	}
	bad := map[string][]byte{
		"short certificate":   stateResp(forged(func(c *CkptCert) { c.Votes = c.Votes[:1] }), state),
		"non-member voter":    stateResp(forged(func(c *CkptCert) { c.Votes[1] = CkptVote{Sender: 9, Proof: proof(9)} }), state),
		"duplicate voter":     stateResp(forged(func(c *CkptCert) { c.Votes[1] = c.Votes[0] }), state),
		"failing proof":       stateResp(forged(func(c *CkptCert) { c.Votes[1].Proof = []byte("forged") }), state),
		"wrong digest":        stateResp(cert, append([]byte{0}, state...)),
		"undecodable payload": body[:len(body)-1],
	}
	for name, resp := range bad {
		b := ckptRig(t, "")
		b.HandleStateResp(resp)
		if b.Stable().Count != 0 || b.execPos != 0 || len(b.core.stables) != 0 || b.sm.applied != 0 {
			t.Fatalf("%s: installed %+v", name, b.Stable())
		}
	}

	b := ckptRig(t, "")
	var z [32]byte
	b.vote(1, 2, z)
	b.vote(2, 2, z) // a fetch is running
	b.HandleStateResp(body)
	if got := b.Stable(); got.Count != 2 || got.Digest != d || !b.core.stables[0].installed {
		t.Fatalf("install: stable %+v, hook %+v", got, b.core.stables)
	}
	if b.sm.applied != 2 || b.AnyFresh([]Request{put(7, 2)}) || b.Fetching() || b.counter("state_transfers_total") != 1 {
		t.Fatal("the install did not restore the state and the client table, or left the fetch running")
	}
	b.HandleStateResp(body) // not ahead of execution any more
	if len(b.core.stables) != 1 {
		t.Fatal("installed the same checkpoint twice")
	}
}

func fetchBody(count uint64) []byte {
	e := wire.NewEncoder(8)
	e.Uint64(count)
	return e.Bytes()
}

func TestEngineCkptLateVotesExtend(t *testing.T) {
	dir := t.TempDir()
	r := ckptRig(t, dir)
	d := r.stableAt2()
	other := d
	other[0] ^= 1
	r.vote(2, 2, other) // a late vote on another digest
	r.vote(1, 2, d)     // a voter already in the certificate
	if n := len(r.Stable().Votes); n != 2 {
		t.Fatalf("certificate has %d votes, want 2", n)
	}
	r.vote(2, 2, d)
	if n := len(r.Stable().Votes); n != 3 {
		t.Fatalf("certificate has %d votes after a late matching one, want 3", n)
	}
	if len(r.core.stables) != 1 {
		t.Fatal("an extension is not a stable advance")
	}
	// The file follows the extension.
	again := ckptRig(t, dir)
	if ok, err := again.LoadCheckpoint(); !ok || err != nil || len(again.Stable().Votes) != 3 {
		t.Fatalf("reloaded %v %v with %d votes", ok, err, len(again.Stable().Votes))
	}
}

func TestEngineCkptFile(t *testing.T) {
	dir := t.TempDir()
	if ok, err := ckptRig(t, dir).LoadCheckpoint(); ok || err != nil {
		t.Fatalf("empty data dir: %v %v", ok, err)
	}
	a := ckptRig(t, dir)
	d := a.stableAt2()

	b := ckptRig(t, dir)
	if ok, err := b.LoadCheckpoint(); !ok || err != nil {
		t.Fatalf("load: %v %v", ok, err)
	}
	if got := b.Stable(); got.Count != 2 || got.Digest != d || len(b.core.stables) != 1 || !b.core.stables[0].installed {
		t.Fatalf("loaded %+v, hook %+v", got, b.core.stables)
	}
	if b.sm.applied != 2 || b.execPos != 2 || b.counter("state_transfers_total") != 0 {
		t.Fatal("load did not install the state, or counted as a transfer")
	}

	path := filepath.Join(dir, ckptFileName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := wire.NewEncoder(0) // a sound checkpoint under the previous magic
	old.String("unidir/minbft/ckpt/v1")
	encodeStable(old, a.Stable(), a.stableState)
	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)-1] ^= 1 // the last byte of the state
	for name, data := range map[string][]byte{"old magic": old.Bytes(), "corrupt state": corrupt, "truncated": good[:len(good)/2]} {
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		c := ckptRig(t, dir)
		if ok, err := c.LoadCheckpoint(); ok || err == nil || c.Stable().Count != 0 {
			t.Fatalf("%s: loaded %v, err %v", name, ok, err)
		}
	}
	if err := os.WriteFile(path, good, 0o600); err != nil {
		t.Fatal(err)
	}
	type plain struct{ StateMachine }
	e := NewEngine("x", &fakeCore{}, &fakeNet{}, plain{&fakeSM{}}, newFakeClock(), []types.ProcessID{1, 2}, 0, 1, 2, dir, EngineConfig{})
	if _, err := e.LoadCheckpoint(); err == nil {
		t.Fatal("a data dir without a snapshotting state machine")
	}
}
