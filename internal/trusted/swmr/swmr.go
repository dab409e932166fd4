// Package swmr implements single-writer multi-reader (SWMR) shared memory
// with access control lists — the canonical "shared memory with ACLs"
// trusted hardware class of the paper (§2.1): for each process p_i there is
// an object o_i that only p_i can modify and every process can read.
//
// The paper's round protocol *appends* (r, m) to the owner's object and
// readers scan whole objects, so the object here is an append-only list
// (which subsumes a register: the register value is the last element).
// Register-style Write/Read accessors are also provided for protocols that
// want plain SWMR registers.
//
// Substitution note (see DESIGN.md): the hardware (for example RDMA-exported
// memory with protection domains, as in Aguilera et al. DISC'19) is
// simulated by a linearizable in-memory Store whose operations validate the
// caller against the ACL. Linearizability comes from a single mutex; the
// classification argument needs nothing stronger than "a completed write is
// visible to every subsequent read", which the mutex provides. A
// transport-level RPC front end (Server/Client) exposes the same API across
// the simulated network so deployments can place memory on a separate node.
package swmr

import (
	"errors"
	"fmt"
	"sync"

	"unidir/internal/types"
)

var (
	// ErrACL reports a modification attempted by a non-owner.
	ErrACL = errors.New("swmr: access denied by ACL")
	// ErrNoSuchObject reports access to an object outside the membership.
	ErrNoSuchObject = errors.New("swmr: no such object")
)

// Store is the shared memory: one append-only object per process in the
// membership. All operations are linearizable and safe for concurrent use.
type Store struct {
	m types.Membership

	mu   sync.Mutex
	objs [][][]byte // objs[owner] = append-only list of values
}

// NewStore allocates shared memory for membership m.
func NewStore(m types.Membership) (*Store, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Store{
		m:    m,
		objs: make([][][]byte, m.N),
	}, nil
}

// Membership returns the membership the store was created for.
func (s *Store) Membership() types.Membership { return s.m }

func (s *Store) check(caller, owner types.ProcessID, modify bool) error {
	if !s.m.Contains(owner) {
		return fmt.Errorf("%w: %v", ErrNoSuchObject, owner)
	}
	if modify && caller != owner {
		return fmt.Errorf("%w: %v cannot modify o_%d", ErrACL, caller, int(owner))
	}
	return nil
}

// Append adds val to the end of owner's object. Only the owner may append;
// the ACL check uses the caller identity, which the RPC server derives from
// the authenticated channel.
func (s *Store) Append(caller, owner types.ProcessID, val []byte) error {
	if err := s.check(caller, owner, true); err != nil {
		return err
	}
	cp := append([]byte(nil), val...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objs[owner] = append(s.objs[owner], cp)
	return nil
}

// Write replaces owner's object with the single value val (register
// semantics). Only the owner may write.
func (s *Store) Write(caller, owner types.ProcessID, val []byte) error {
	if err := s.check(caller, owner, true); err != nil {
		return err
	}
	cp := append([]byte(nil), val...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objs[owner] = [][]byte{cp}
	return nil
}

// Read returns the register value of owner's object: its last element, or
// (nil, false) if the object is empty. Any process may read.
func (s *Store) Read(caller, owner types.ProcessID) ([]byte, bool, error) {
	if err := s.check(caller, owner, false); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	obj := s.objs[owner]
	if len(obj) == 0 {
		return nil, false, nil
	}
	return append([]byte(nil), obj[len(obj)-1]...), true, nil
}

// ReadLog returns a copy of owner's whole object starting at offset from
// (0-based). Any process may read. Pollers pass the previously seen length
// as from to fetch only new entries.
func (s *Store) ReadLog(caller, owner types.ProcessID, from int) ([][]byte, error) {
	if err := s.check(caller, owner, false); err != nil {
		return nil, err
	}
	if from < 0 {
		from = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	obj := s.objs[owner]
	if from > len(obj) {
		from = len(obj)
	}
	out := make([][]byte, 0, len(obj)-from)
	for _, v := range obj[from:] {
		out = append(out, append([]byte(nil), v...))
	}
	return out, nil
}

// Len returns the number of entries in owner's object.
func (s *Store) Len(caller, owner types.ProcessID) (int, error) {
	if err := s.check(caller, owner, false); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objs[owner]), nil
}

// Snapshot returns a copy of every object (one scan of the whole memory, as
// the round protocol's "p_i reads objects o_1...o_n" step). The scan is
// atomic (single critical section), which is stronger than the protocol
// needs — per-object atomicity suffices for unidirectionality — but keeps
// the checker's bookkeeping simple.
func (s *Store) Snapshot(caller types.ProcessID) ([][][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][][]byte, len(s.objs))
	for i, obj := range s.objs {
		cp := make([][]byte, len(obj))
		for j, v := range obj {
			cp[j] = append([]byte(nil), v...)
		}
		out[i] = cp
	}
	return out, nil
}

// Memory is the access interface protocols use, implemented by both the
// local Store (via Local) and the RPC Client. The caller identity is fixed
// at construction, modelling the authenticated hardware channel.
type Memory interface {
	// Self returns the fixed caller identity.
	Self() types.ProcessID
	// Append adds val to this process's own object.
	Append(val []byte) error
	// Write sets this process's own object to the single value val.
	Write(val []byte) error
	// Read returns the register value of owner's object.
	Read(owner types.ProcessID) ([]byte, bool, error)
	// ReadLog returns owner's object entries starting at offset from.
	ReadLog(owner types.ProcessID, from int) ([][]byte, error)
}

// Local binds a caller identity to a Store, implementing Memory with direct
// (in-process) access.
type Local struct {
	store *Store
	self  types.ProcessID
}

var _ Memory = (*Local)(nil)

// NewLocal returns a Memory view of store for process self.
func NewLocal(store *Store, self types.ProcessID) *Local {
	return &Local{store: store, self: self}
}

// Self returns the fixed caller identity.
func (l *Local) Self() types.ProcessID { return l.self }

// Append adds val to the caller's own object.
func (l *Local) Append(val []byte) error { return l.store.Append(l.self, l.self, val) }

// Write sets the caller's own object to val.
func (l *Local) Write(val []byte) error { return l.store.Write(l.self, l.self, val) }

// Read returns the register value of owner's object.
func (l *Local) Read(owner types.ProcessID) ([]byte, bool, error) {
	return l.store.Read(l.self, owner)
}

// ReadLog returns owner's object entries starting at offset from.
func (l *Local) ReadLog(owner types.ProcessID, from int) ([][]byte, error) {
	return l.store.ReadLog(l.self, owner, from)
}
