package minbft

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/smr"
	"unidir/internal/trusted/trinc"
	"unidir/internal/types"
)

func TestWatchdogRestartsAtViewInstall(t *testing.T) {
	// A request that arrives in view v and is still pending when view v+1 is
	// installed is the new primary's to order from the install on: the
	// replica blames the new primary reqTimeout after the install — not
	// reqTimeout after the request's arrival, which for a request that came
	// in late in view v would be earlier and would punish the new primary
	// for the old one's silence.
	//
	// Backup 2 is the replica under test; the test plays the view-0 primary
	// (silent, but it endorses the first view change so that backup 1 joins
	// it) and the client, which sends to backup 2 only, so the view-1
	// primary (backup 1) never learns of the requests and withholds them.
	const timeout = 400 * time.Millisecond
	fix := newByzPrimaryFixture(t, WithRequestTimeout(timeout), WithEngineConfig(smr.EngineConfig{LeaseTerm: -1}))
	b2 := fix.backups[1]
	put := func(num uint64) []byte {
		return EncodeRequestEnvelope([]smr.Request{{Client: 3, Num: num, Op: kvstore.EncodePut("k", []byte{byte(num)})}})
	}
	vc1 := fix.attested(t, kindViewChange, viewChange{NewView: 1}.encodeBody())
	fix.net.Inject(0, 1, vc1)
	fix.net.Inject(0, 2, vc1)

	// demands receives the time of each VIEW-CHANGE backup 2 broadcasts, as
	// seen at the (test-played) primary's endpoint.
	type demand struct {
		view uint64
		at   time.Time
	}
	demands := make(chan demand, 16) // a handful of view changes at most; never blocks the reader
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for {
			env, err := fix.net.Endpoint(0).Recv(ctx)
			if err != nil {
				return
			}
			now := time.Now()
			kind, body, ui, err := decodeEnvelope(env.Payload)
			if err != nil || kind != kindViewChange || ui == nil || ui.Trinket != 2 {
				continue
			}
			if vc, err := decodeViewChangeBody(body, maxLogEntries); err == nil {
				demands <- demand{uint64(vc.NewView), now}
			}
		}
	}()
	waitDemand := func(view uint64) time.Time {
		t.Helper()
		for {
			select {
			case d := <-demands:
				if d.view == view {
					return d.at
				}
			case <-time.After(20 * timeout):
				t.Fatalf("backup 2 never demanded view %d", view)
			}
		}
	}

	fix.net.Inject(3, 2, put(1)) // its watchdog ends view 0
	time.Sleep(6 * timeout / 10)
	fix.net.Inject(3, 2, put(2)) // arrives late in view 0; arrival + timeout is 0.4 × timeout before install + timeout

	// Bracket the install: lastOld <= install time <= firstNew. (View 0 has
	// 0.4 × timeout left to run, so polling starts in it.)
	lastOld, firstNew := time.Now(), time.Time{}
	for deadline := lastOld.Add(10 * timeout); firstNew.IsZero(); {
		now := time.Now()
		switch {
		case b2.View() >= 1:
			firstNew = now
		case now.After(deadline):
			t.Fatal("view 1 never installed at backup 2")
		default:
			lastOld = now
			time.Sleep(200 * time.Microsecond)
		}
	}
	blamed := waitDemand(2)
	if early := lastOld.Add(timeout).Sub(blamed); early > 0 {
		t.Fatalf("new primary blamed %v before a full timeout had passed since it took over", early)
	}
	// One queue tick late at most; the allowance is for a loaded test host.
	if late := blamed.Sub(firstNew.Add(timeout)); late > timeout/2 {
		t.Fatalf("new primary blamed %v after its timeout expired", late)
	}
	st := b2.Status()
	if st.PendingRequests != 2 || st.WatchdogEntries != 0 {
		t.Fatalf("after the blame: %d pending, %d watchdogs; want 2 pending (nobody ordered them) and 0 watchdogs (both fired)",
			st.PendingRequests, st.WatchdogEntries)
	}
}

func TestDeferredViewChangeStopsLeaderRenewal(t *testing.T) {
	// The view-0 primary is alone: its backups (endpoints the test holds)
	// never answer, so its request never commits and no lease grant arrives.
	// Its watchdog must still end the view. The VIEW-CHANGE waits out the
	// primary's own grantor promise — its self-grant — so that promise must
	// stop growing once the view change is deferred: a primary that went on
	// renewing its lease would defer the view change forever.
	const timeout, term = 200 * time.Millisecond, 100 * time.Millisecond
	m, err := types.NewMembership(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	netM, err := types.NewMembership(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := simnet.New(netM)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	tu, err := trinc.NewUniverse(m, sig.HMAC, rand.New(rand.NewSource(83)))
	if err != nil {
		t.Fatal(err)
	}
	p0, err := New(m, net.Endpoint(0), tu.Devices[0], tu.Verifier, kvstore.New(),
		WithRequestTimeout(timeout), WithEngineConfig(smr.EngineConfig{LeaseTerm: term}))
	if err != nil {
		t.Fatal(err)
	}
	defer p0.Close()
	net.Inject(3, 0, EncodeRequestEnvelope([]smr.Request{{Client: 3, Num: 1, Op: kvstore.EncodePut("k", nil)}}))

	ctx, cancel := context.WithTimeout(context.Background(), 20*timeout)
	defer cancel()
	for {
		env, err := net.Endpoint(1).Recv(ctx)
		if err != nil {
			t.Fatalf("the primary never demanded view 1: %v", err)
		}
		kind, body, ui, err := decodeEnvelope(env.Payload)
		if err != nil || kind != kindViewChange || ui == nil || ui.Trinket != 0 {
			continue
		}
		if vc, err := decodeViewChangeBody(body, maxLogEntries); err == nil && vc.NewView == 1 {
			return
		}
	}
}
