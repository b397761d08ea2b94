// Package core implements Predicate RCU (PRCU) and the baseline RCU
// algorithms it is evaluated against in
//
//	Maya Arbel and Adam Morrison.
//	"Predicate RCU: An RCU for Scalable Concurrent Updates." PPoPP 2015.
//
// The package provides nine interchangeable engines behind one interface:
//
//   - EER-PRCU (§4.1): wait-for-readers evaluates the predicate for each
//     reader and waits only for readers it holds for.
//   - D-PRCU (§4.2): readers hash their value into a shared counter table;
//     wait-for-readers drains only the counters the predicate covers.
//   - DEER-PRCU (§4.3): per-reader counter tables; linear scan like EER but
//     without coherence ping-pong between non-conflicting readers/waiters.
//   - Time RCU (§6): time-based quiescence detection for all readers —
//     EER-PRCU without the predicate, the paper's strongest RCU baseline.
//   - URCU (§2.2): Desnoyers et al.'s userspace RCU with a global grace
//     period counter and a global writer lock.
//   - Tree RCU (§2.2): the Linux hierarchical bitmap algorithm, restricted
//     as in the paper's evaluation to treat the states between data
//     structure operations as quiescent.
//   - Dist RCU (§2.2): Arbel–Attiya distributed per-reader counters.
//   - SRCU (§7): McKenney's Sleepable RCU, the origin of D-PRCU's
//     two-counter protocol.
//   - Packed RCU: the active bit and entry epoch packed in one reader word,
//     with lock-free two-flip waits.
//
// They run on four kernels: timestamp (deer.go: EER, DEER, Time), counter
// (dprcu.go: D, SRCU), tree (treercu.go: Tree, and Dist with no levels)
// and epoch (packed.go: Packed, and URCU with a writer lock).
//
// All engines accept the full PRCU interface; the plain-RCU baselines ignore
// the value and predicate arguments, which makes them drop-in comparators.
//
// Memory model. The paper's pseudo code targets x86-TSO plus explicit
// fences. This implementation uses sync/atomic for every shared access,
// which in Go provides sequential consistency — strictly stronger than the
// fence discipline in Algorithms 1–3, so the paper's safety proofs carry
// over directly (see the comments on each engine).
package core
