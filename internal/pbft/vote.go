package pbft

// The PREPARE/COMMIT tally: verify on demand (DESIGN.md §5). A vote that
// passes the cheap checks is held with its digest and signature under its
// sender, unverified. progress asks tally for a phase's quorum only once the
// slot can use it — PREPAREs once the pre-prepare has bound the digest,
// COMMITs once the slot is prepared — and tally verifies held votes for the
// bound digest until it has 2f+1, then stops. What is still held at commit
// is dropped unverified.
//
// Invariants:
//  1. A vote counts only once its signature verified and its digest equals
//     the slot's bound digest.
//  2. A forged frame costs at most one verification and can neither block
//     nor displace the genuine vote from the same sender: a second,
//     different vote from a sender whose vote is held settles the held one
//     first, and the survivor keeps the sender's place.
//  3. Held state is bounded: at most one vote per sender per phase per open
//     slot, and only a slot within holdAhead of execution may be opened by
//     a vote nobody has verified.

import (
	"bytes"
	"crypto/sha256"

	"unidir/internal/types"
)

// holdAhead is how far past execution a vote may open a slot unverified.
// Beyond it the vote is verified before the slot exists, so forged frames
// cannot fill the slot table with sequence numbers no checkpoint will reach
// soon. A correct primary runs at most two batches ahead of its own
// execution; the rest is room for a replica that trails the quorum.
const holdAhead = 64

type voteState uint8

const (
	voteNone  voteState = iota
	voteHeld            // passed the cheap checks; signature not checked
	voteValid           // signature checked, or needs none; counts iff its digest is the slot's
)

// vote is one sender's PREPARE or COMMIT for one slot.
type vote struct {
	state  voteState
	digest [sha256.Size]byte
	sig    []byte // while held
}

// phase returns the slot's votes of one kind, indexed by sender.
func (sl *slot) phase(kind byte) []vote {
	n := len(sl.votes) / 2
	if kind == kindPrepare {
		return sl.votes[:n]
	}
	return sl.votes[n:]
}

// count records a vote that needs no signature check for the bound digest:
// the replica's own, or the primary's PREPARE its pre-prepare stands for.
func (sl *slot) count(kind byte, from types.ProcessID) {
	sl.phase(kind)[from] = vote{state: voteValid, digest: sl.digest}
}

// reached reports whether phase kind has its quorum; the slot then takes no
// more votes of that kind.
func (sl *slot) reached(kind byte) bool {
	if kind == kindPrepare {
		return sl.prepared
	}
	return sl.committed
}

// handleVote takes a PREPARE or COMMIT in the view and from a member, and
// holds it unless a cheap check drops it: not from self, slot not released,
// phase quorum not reached, sender's vote not already settled.
func (r *Replica) handleVote(kind byte, from types.ProcessID, n types.SeqNum, digest, signature []byte) {
	if len(digest) != sha256.Size || from == r.Self() || r.released(n) {
		return
	}
	in := vote{state: voteHeld, digest: [sha256.Size]byte(digest), sig: signature}
	sl := r.slots[n]
	if sl == nil {
		if n >= r.execNext+holdAhead && !r.settle(kind, n, from, &in) {
			return
		}
		sl = r.slot(n)
	}
	if sl.reached(kind) {
		return
	}
	v := &sl.phase(kind)[from]
	if v.state == voteHeld && (v.digest != in.digest || !bytes.Equal(v.sig, in.sig)) {
		r.settle(kind, n, from, v) // a forgery is cleared and the new vote takes its place
	}
	if v.state != voteNone {
		return
	}
	*v = in
	r.progress(n, sl)
}

// settle verifies a held vote: a good signature makes it valid, a bad one
// clears it.
func (r *Replica) settle(kind byte, n types.SeqNum, from types.ProcessID, v *vote) bool {
	if r.verify(from, kind, n, v.digest[:], v.sig) != nil {
		*v = vote{}
		return false
	}
	*v = vote{state: voteValid, digest: v.digest}
	return true
}

// tally reports whether phase kind of a bound slot has 2f+1 valid votes for
// the bound digest, verifying held votes for that digest only until it has.
// A held vote for any other digest is never verified here.
func (r *Replica) tally(kind byte, n types.SeqNum, sl *slot) bool {
	votes := sl.phase(kind)
	count := 0
	for i := range votes {
		if votes[i].state == voteValid && votes[i].digest == sl.digest {
			count++
		}
	}
	for i := range votes {
		if count >= r.m.Quorum() {
			break
		}
		if v := &votes[i]; v.state == voteHeld && v.digest == sl.digest && r.settle(kind, n, types.ProcessID(i), v) {
			count++
		}
	}
	return count >= r.m.Quorum()
}
