// Package unidir is a production-quality Go reproduction of Ben-David &
// Nayak, "Brief Announcement: Classifying Trusted Hardware via
// Unidirectional Communication" (PODC 2021).
//
// The paper classifies the trusted hardware used to raise Byzantine fault
// tolerance past the asynchronous n > 3f bound into two strictly separated
// power classes: trusted logs (A2M, TrInc, SGX-style attestation), which
// are no stronger than sequenced reliable broadcast, and shared memory
// with ACLs (SWMR registers, sticky bits, PEATS), which additionally
// provide unidirectional communication — a partial immunity to network
// partitions that eventual-delivery media cannot offer.
//
// This library makes the whole classification executable:
//
//   - internal/trusted/... — simulated hardware: TrInc, A2M (native and
//     TrInc-backed), SWMR registers, sticky bits, PEATS, and the TrInc-from-
//     SRB construction of Theorem 1;
//   - internal/rounds — round systems for each communication class
//     (SWMR-based unidirectional, reliable-broadcast f=1 corner case,
//     zero-directional async, lock-step bidirectional);
//   - internal/core — the communication classes and the machine-checkable
//     unidirectionality predicate;
//   - internal/srb — sequenced reliable broadcast: property checkers and
//     three implementations (Algorithm 1 over unidirectional rounds, TrInc
//     chains, Bracha baseline);
//   - internal/separation — the paper's §4.1 impossibility as a runnable
//     experiment;
//   - internal/agreement, internal/smr, internal/minbft, internal/pbft,
//     internal/kvstore — the protocol layer the classification pays off
//     in: one replica engine (smr.Engine: requests, reads, replies,
//     batching, admission, tracing) behind which a MinBFT-style n=2f+1
//     core on TrInc USIGs and a PBFT n=3f+1 core differ only in how they
//     order a batch;
//   - internal/simnet, internal/tcpnet — adversarial simulated network and
//     a real TCP transport behind one interface.
//
// See README.md for a guided tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for reproduction results. Start
// with:
//
//	go run ./examples/quickstart
//	go run ./examples/separation
//	go run ./examples/minbft-kv
//	go run ./cmd/benchharness -exp all
package unidir
