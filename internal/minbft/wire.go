package minbft

import (
	"crypto/sha256"
	"fmt"

	"unidir/internal/smr"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
	"unidir/internal/wire"
)

// Message kinds. REQUEST and REPLY are client traffic (unattested);
// PREPARE, COMMIT, VIEW-CHANGE and NEW-VIEW are replica traffic, each
// carrying the sender's UI (a TrInc attestation over the message body), so
// every replica's protocol messages form one tamper-evident total order.
const (
	kindRequest byte = iota + 1
	kindPrepare
	kindCommit
	kindViewChange
	kindNewView
	kindFetch        // unattested query: "send me peer P's message at UI seq S"
	kindFetchResp    // carries a stored original envelope, self-authenticating
	kindCheckpoint   // attested state digest at an execution-count boundary
	kindStateFetch   // the engine's unattested "send me your stable checkpoint >= count"
	kindStateResp    // the engine's checkpoint cert + state, self-certifying (cert UIs)
	kindRestart      // attested counter-jump announcement after a crash-restart
	kindReadRequest  // client read-only request, served off the ordering path
	kindLeaseRequest // primary's attested lease solicitation (body: view)
	kindLeaseGrant   // grantor's attested lease promise (body: view, request UI seq)
)

const uiDomain = "unidir/minbft/ui/v1"

// usigCounter is the trinket counter dedicated to the USIG.
const usigCounter uint64 = 0

// appendUIBinding appends the byte string a UI attests: domain, kind, and
// body hash.
func appendUIBinding(e *wire.Encoder, kind byte, body []byte) {
	h := sha256.Sum256(body)
	e.String(uiDomain)
	e.Byte(kind)
	e.BytesField(h[:])
}

// uiBinding is the byte string a UI attests, as a fresh allocation. Hot
// paths that only need the binding transiently use appendUIBinding with a
// pooled encoder instead (see Replica.checkUI).
func uiBinding(kind byte, body []byte) []byte {
	e := wire.NewEncoder(64)
	appendUIBinding(e, kind, body)
	return e.Bytes()
}

// encodeRequests is the canonical wire form of a request batch — the byte
// string commits digest (one attestation and one quorum certificate cover
// the whole batch). Shared with pbft via smr.
func encodeRequests(reqs []smr.Request) []byte { return smr.EncodeRequests(reqs) }

// decodeRequests parses a batch; the requests' Ops alias b.
func decodeRequests(b []byte) ([]smr.Request, error) {
	reqs, err := smr.DecodeRequests(b, smr.MaxBatchSize)
	if err != nil {
		return nil, fmt.Errorf("minbft: %w", err)
	}
	return reqs, nil
}

// prepare is the primary's ordering statement for one batch of requests:
// one UI, one slot, one quorum certificate, however many client commands.
type prepare struct {
	View types.View
	Reqs []smr.Request
	// batch is encodeRequests(Reqs) inside the prepare body: set by
	// withBody and decodePrepareBody, which every prepare that reaches
	// batchDigest comes from.
	batch []byte
}

func (p prepare) encodeBody() []byte {
	n := smr.RequestsSize(p.Reqs)
	e := wire.NewEncoder(16 + n)
	e.Uint64(uint64(p.View))
	e.BytesFieldWith(n, func(b []byte) []byte { return smr.AppendRequests(b, p.Reqs) })
	return e.Bytes()
}

// withBody encodes the prepare and returns it with batch set, and its body.
func (p prepare) withBody() (prepare, []byte) {
	body := p.encodeBody()
	p.batch = body[len(body)-smr.RequestsSize(p.Reqs):]
	return p, body
}

// batchDigest is what commits endorse: the hash of the canonical batch
// encoding (not of the whole prepare body, so it is recomputable from the
// requests alone).
func (p prepare) batchDigest() [sha256.Size]byte {
	return sha256.Sum256(p.batch)
}

func decodePrepareBody(b []byte) (prepare, error) {
	d := wire.NewDecoder(b)
	var p prepare
	p.View = types.View(d.Uint64())
	reqBytes := d.BytesField()
	if err := d.Finish(); err != nil {
		return prepare{}, fmt.Errorf("minbft: decode prepare: %w", err)
	}
	reqs, err := decodeRequests(reqBytes)
	if err != nil {
		return prepare{}, err
	}
	p.Reqs = reqs
	p.batch = reqBytes
	return p, nil
}

// commit is a backup's endorsement of a prepare, identified by the
// primary's UI counter value and the batch digest.
type commit struct {
	View      types.View
	Primary   types.ProcessID
	PrepSeq   types.SeqNum
	ReqDigest [sha256.Size]byte
}

func (c commit) encodeBody() []byte {
	e := wire.NewEncoder(64)
	e.Uint64(uint64(c.View))
	e.Int(int(c.Primary))
	e.Uint64(uint64(c.PrepSeq))
	e.BytesField(c.ReqDigest[:])
	return e.Bytes()
}

func decodeCommitBody(b []byte) (commit, error) {
	d := wire.NewDecoder(b)
	var c commit
	c.View = types.View(d.Uint64())
	c.Primary = types.ProcessID(d.Int())
	c.PrepSeq = types.SeqNum(d.Uint64())
	h := d.BytesField()
	if err := d.Finish(); err != nil {
		return commit{}, fmt.Errorf("minbft: decode commit: %w", err)
	}
	if len(h) != sha256.Size {
		return commit{}, fmt.Errorf("minbft: commit digest length %d", len(h))
	}
	copy(c.ReqDigest[:], h)
	return c, nil
}

// logEntry is one accepted prepare (a whole batch) carried inside a
// VIEW-CHANGE message. The primary's UI attestation makes the entry
// self-certifying: at most one batch can ever exist per (primary counter
// value), so a Byzantine view-change sender can omit entries but not
// fabricate or alter them — including the batch's internal request order.
type logEntry struct {
	View    types.View
	PrepSeq types.SeqNum
	Reqs    []smr.Request
	PrepUI  trinc.Attestation
}

func encodeLogEntry(e *wire.Encoder, le logEntry) {
	e.Uint64(uint64(le.View))
	e.Uint64(uint64(le.PrepSeq))
	e.BytesField(encodeRequests(le.Reqs))
	e.BytesField(le.PrepUI.Encode())
}

func decodeLogEntry(d *wire.Decoder) (logEntry, error) {
	var le logEntry
	le.View = types.View(d.Uint64())
	le.PrepSeq = types.SeqNum(d.Uint64())
	reqBytes := d.BytesField()
	attBytes := d.BytesField()
	if err := d.Err(); err != nil {
		return logEntry{}, err
	}
	reqs, err := decodeRequests(reqBytes)
	if err != nil {
		return logEntry{}, err
	}
	att, err := trinc.DecodeAttestation(attBytes)
	if err != nil {
		return logEntry{}, err
	}
	le.Reqs = reqs
	le.PrepUI = att
	return le, nil
}

// viewChange announces a replica's move to a new view, carrying its
// accepted-prepare log (garbage-collected below the stable checkpoint) and
// its stable-checkpoint certificate, so the union computed at view install
// knows the state the surviving log suffix builds on.
type viewChange struct {
	NewView types.View
	Log     []logEntry
	Cert    smr.CkptCert // stable checkpoint certificate (Count 0: none yet)
}

func (v viewChange) encodeBody() []byte {
	e := wire.NewEncoder(64)
	e.Uint64(uint64(v.NewView))
	e.Int(len(v.Log))
	for _, le := range v.Log {
		encodeLogEntry(e, le)
	}
	smr.EncodeCkptCert(e, v.Cert)
	return e.Bytes()
}

func decodeViewChangeBody(b []byte, maxEntries int) (viewChange, error) {
	d := wire.NewDecoder(b)
	var v viewChange
	v.NewView = types.View(d.Uint64())
	n := d.Int()
	if err := d.Err(); err != nil {
		return viewChange{}, err
	}
	if n < 0 || n > maxEntries {
		return viewChange{}, fmt.Errorf("minbft: view-change with %d entries", n)
	}
	for i := 0; i < n; i++ {
		le, err := decodeLogEntry(d)
		if err != nil {
			return viewChange{}, err
		}
		v.Log = append(v.Log, le)
	}
	cert, err := smr.DecodeCkptCert(d)
	if err != nil {
		return viewChange{}, fmt.Errorf("minbft: decode view-change: %w", err)
	}
	v.Cert = cert
	if err := d.Finish(); err != nil {
		return viewChange{}, fmt.Errorf("minbft: decode view-change: %w", err)
	}
	return v, nil
}

// signedVC is a view-change message as evidence inside NEW-VIEW: the
// sender, the raw body, and the sender's UI over it.
type signedVC struct {
	Sender types.ProcessID
	Body   []byte
	UI     trinc.Attestation
}

// newView is the new primary's installation message: f+1 signed
// view-changes for the target view.
type newView struct {
	NewView types.View
	VCs     []signedVC
}

func (nv newView) encodeBody() []byte {
	e := wire.NewEncoder(128)
	e.Uint64(uint64(nv.NewView))
	e.Int(len(nv.VCs))
	for _, vc := range nv.VCs {
		e.Int(int(vc.Sender))
		e.BytesField(vc.Body)
		e.BytesField(vc.UI.Encode())
	}
	return e.Bytes()
}

func decodeNewViewBody(b []byte, maxVCs int) (newView, error) {
	d := wire.NewDecoder(b)
	var nv newView
	nv.NewView = types.View(d.Uint64())
	n := d.Int()
	if err := d.Err(); err != nil {
		return newView{}, err
	}
	if n < 0 || n > maxVCs {
		return newView{}, fmt.Errorf("minbft: new-view with %d vcs", n)
	}
	for i := 0; i < n; i++ {
		var vc signedVC
		vc.Sender = types.ProcessID(d.Int())
		vc.Body = d.BytesField()
		attBytes := d.BytesField()
		if err := d.Err(); err != nil {
			return newView{}, err
		}
		att, err := trinc.DecodeAttestation(attBytes)
		if err != nil {
			return newView{}, err
		}
		vc.UI = att
		nv.VCs = append(nv.VCs, vc)
	}
	if err := d.Finish(); err != nil {
		return newView{}, fmt.Errorf("minbft: decode new-view: %w", err)
	}
	return nv, nil
}

// fetchBody encodes a gap-fill query for peer's message at UI value seq.
func encodeFetchBody(peer types.ProcessID, seq types.SeqNum) []byte {
	e := wire.NewEncoder(16)
	e.Int(int(peer))
	e.Uint64(uint64(seq))
	return e.Bytes()
}

func decodeFetchBody(b []byte) (types.ProcessID, types.SeqNum, error) {
	d := wire.NewDecoder(b)
	peer := types.ProcessID(d.Int())
	seq := types.SeqNum(d.Uint64())
	if err := d.Finish(); err != nil {
		return 0, 0, fmt.Errorf("minbft: decode fetch: %w", err)
	}
	return peer, seq, nil
}

// EncodeRequestEnvelope wraps one frame of client requests, an
// smr.EncodeRequests body written in place, for submission to replicas; pass
// it to smr.WithRequestEncoder when building a client.
func EncodeRequestEnvelope(reqs []smr.Request) []byte {
	return encodeEnvelopeWith(kindRequest, smr.RequestsSize(reqs), func(b []byte) []byte { return smr.AppendRequests(b, reqs) }, nil)
}

// EncodeReadRequestEnvelope wraps a client read for the fast path; pass it
// to smr.WithPipelineReadEncoder when building a pipelined client.
func EncodeReadRequestEnvelope(req smr.ReadRequest) []byte {
	return encodeEnvelope(kindReadRequest, req.Encode(), nil)
}

// EncodeReadBatchEnvelope wraps a coalesced batch of encoded reads; pass it
// to smr.WithPipelineReadBatchEncoder when building a pipelined client.
func EncodeReadBatchEnvelope(reqs [][]byte) []byte {
	return encodeEnvelope(kindReadRequest, smr.EncodeReadRequestBatch(reqs), nil)
}

// encodeLeaseRequestBody is the primary's lease solicitation: just the view
// it claims leadership of. The UI over this body is what binds the lease
// round to the primary's trusted counter — the grant echoes that counter
// value, so the round a grant answers is unforgeable and totally ordered
// against everything else the primary ever attested.
func encodeLeaseRequestBody(view types.View) []byte {
	e := wire.NewEncoder(8)
	e.Uint64(uint64(view))
	return e.Bytes()
}

func decodeLeaseRequestBody(b []byte) (types.View, error) {
	d := wire.NewDecoder(b)
	v := types.View(d.Uint64())
	if err := d.Finish(); err != nil {
		return 0, fmt.Errorf("minbft: decode lease request: %w", err)
	}
	return v, nil
}

// encodeLeaseGrantBody is a grantor's promise for one lease round: the view
// it grants in and the UI counter value of the primary's LEASE-REQUEST it
// answers. Grants are broadcast (not sent point-to-point) because every
// attested message must reach every peer to keep UI cursors gap-free.
func encodeLeaseGrantBody(view types.View, reqSeq types.SeqNum) []byte {
	e := wire.NewEncoder(16)
	e.Uint64(uint64(view))
	e.Uint64(uint64(reqSeq))
	return e.Bytes()
}

func decodeLeaseGrantBody(b []byte) (types.View, types.SeqNum, error) {
	d := wire.NewDecoder(b)
	v := types.View(d.Uint64())
	seq := types.SeqNum(d.Uint64())
	if err := d.Finish(); err != nil {
		return 0, 0, fmt.Errorf("minbft: decode lease grant: %w", err)
	}
	return v, seq, nil
}

// envelope wraps kind, body, and the sender's UI attestation for replica
// messages (UI empty for client requests).
func encodeEnvelope(kind byte, body []byte, ui *trinc.Attestation) []byte {
	return encodeEnvelopeWith(kind, len(body), func(b []byte) []byte { return append(b, body...) }, ui)
}

// encodeEnvelopeWith is the envelope layout: the kind, a body of n bytes
// that body appends in place, and the sender's UI (none when nil).
func encodeEnvelopeWith(kind byte, n int, body func([]byte) []byte, ui *trinc.Attestation) []byte {
	var attBytes []byte
	if ui != nil {
		attBytes = ui.Encode()
	}
	e := wire.NewEncoder(16 + n + len(attBytes))
	e.Byte(kind)
	e.BytesFieldWith(n, body)
	e.BytesField(attBytes)
	return e.Bytes()
}

// decodeEnvelope splits an envelope. body aliases payload, which the
// transport hands over read-only and never reuses (transport.Envelope), so
// the message logs may keep it.
func decodeEnvelope(payload []byte) (kind byte, body []byte, ui *trinc.Attestation, err error) {
	d := wire.NewDecoder(payload)
	kind = d.Byte()
	body = d.BytesField()
	attBytes := d.BytesField()
	if err := d.Finish(); err != nil {
		return 0, nil, nil, fmt.Errorf("minbft: decode envelope: %w", err)
	}
	if len(attBytes) > 0 {
		att, err := trinc.DecodeAttestation(attBytes)
		if err != nil {
			return 0, nil, nil, err
		}
		ui = &att
	}
	return kind, body, ui, nil
}
