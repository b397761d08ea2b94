// Package guard is the typed, misuse-resistant surface over the raw
// PRCU reader API. The raw discipline — Enter, traverse atomic
// pointers, Exit, and never let a traversed pointer outlive the
// critical section — is entirely a matter of programmer care. This
// package turns most of that care into types, in the spirit of "Safe
// Deferred Memory Reclamation with Types" adapted to Go generics:
//
//   - A read-side critical section is witnessed by a *Scope capability
//     that only Read/Enter can mint. Guarded pointers are reachable
//     only through methods that demand the Scope, so a load outside a
//     section does not compile.
//   - Guarded[T] is an atomic cell (a list head, a table pointer, a
//     config block) whose value is reachable inside scopes; Cell[T] is
//     the intrusive link for nodes of RCU data structures; List[T]
//     composes Cells into the canonical RCU linked list.
//   - Retire[T] and Retirer[T] feed the reclaim subsystem with the
//     retained byte size computed from the type itself
//     (unsafe.Sizeof + declared extras), so backlog accounting cannot
//     drift from the node type it describes.
//
// What the types cannot express in Go — a guarded pointer assigned to
// a captured variable, sent on a channel, or returned out of the scope
// closure still compiles — is caught two ways: dynamically, because a
// Scope is invalidated on exit and every load through a dead Scope
// panics; and statically, by cmd/prcuvet, whose escape analysis flags
// exactly those three leaks plus Enter-without-Exit and
// retire-before-unlink. Algorithms that intentionally carry a pointer
// out for post-section validation (the CITRUS optimistic traversal)
// must say so with Escape, which is both the audit marker and the
// analyzer's suppression point.
package guard

import (
	"sync/atomic"
	"unsafe"

	"prcu/internal/core"
	"prcu/internal/pad"
	"prcu/internal/reclaim"
)

// Value is the PRCU domain value a scope is entered on; see prcu.Value.
type Value = core.Value

// Predicate selects readers a wait or retirement must cover; see
// prcu.Predicate.
type Predicate = core.Predicate

// Reader is the raw reader handle guard wraps; see prcu.Reader.
type Reader = core.Reader

// Scope witnesses an open read-side critical section. Only R.Enter and
// R.Read mint one; every guarded load demands one; it is invalidated
// the moment the section exits, after which any use panics. A Scope is
// owned by its reader's goroutine and must not be stored, sent, or
// returned — cmd/prcuvet flags those escapes at build time.
//
// A Scope is its reader's own state seen through the capability type:
// the wrapped Reader, the one-bit section state and the value entered
// on. Nothing in it points back at the R, which keeps a guarded load's
// liveness check to one load and lets an R that never leaves its
// function live on that function's stack.
type Scope struct {
	rd core.Reader
	// live is the one-bit section state: true between Enter and Exit.
	live bool
	v    Value
}

// check panics unless the scope's critical section is still open. It is
// the dynamic backstop behind every typed load: a leaked scope cannot
// silently read memory whose grace period may already have passed.
func (s *Scope) check() {
	if s == nil || !s.live {
		panic("guard: use of Scope outside its read-side critical section")
	}
}

// Value returns the domain value the open section was entered on.
func (s *Scope) Value() Value {
	s.check()
	return s.v
}

// R is a typed reader: one registered Reader plus the reusable Scope
// storage that keeps Enter/Exit allocation-free. Like the Reader it
// wraps, an R serves one goroutine at a time and sections must not
// nest. Construct with Wrap.
//
// Enter and Exit write an R on every section, so it is padded to a
// cache line of its own: two readers' bookkeeping never share one.
type R struct {
	s Scope
	_ [pad.CacheLineSize - unsafe.Sizeof(Scope{})]byte
}

// Wrap returns the typed reader over rd. The same rd must not also be
// driven raw while wrapped — the scope's liveness tracking assumes it
// sees every Enter/Exit. The result points at nothing but rd, so a
// caller that keeps it local pays no allocation for it.
func Wrap(rd core.Reader) *R { return &R{s: Scope{rd: rd}} }

// Reader returns the wrapped raw reader, for interoperating with
// not-yet-migrated call sites.
func (g *R) Reader() core.Reader { return g.s.rd }

// Unregister releases the wrapped reader's slot; see Reader.Unregister.
func (g *R) Unregister() { g.s.rd.Unregister() }

// Enter opens a read-side critical section on v and returns its Scope.
// The caller must guarantee Exit on every path; prefer Read, which is
// panic-safe, unless the section is a measured hot path whose body
// cannot panic. cmd/prcuvet verifies the pairing either way.
func (g *R) Enter(v Value) (s *Scope) {
	s = &g.s
	if s.live {
		panic("guard: nested read-side critical sections on one reader")
	}
	s.live, s.v = true, v
	s.rd.Enter(v)
	return
}

// Exit closes the section s witnesses and invalidates s. Enter and Exit
// sit on measured hot loops (BenchmarkGuardedRead holds the typed layer
// to ≤1ns over a raw section), so both must stay within the compiler's
// inlining budget: the happy path is one predicted branch around the
// engine call, the misuse branch is a single constant panic rather than
// a call that diagnoses which misuse (foreign scope, double Exit, dead
// scope) occurred, and Enter writes its two words of bookkeeping in one
// tuple assignment through its named result. The budget is exact —
// measure before adding even one node to these bodies
// (BenchmarkGuardedRead in prcu/hashtable).
func (g *R) Exit(s *Scope) {
	if s != &g.s || !s.live {
		panic("guard: Exit with a foreign, dead, or already-exited Scope")
	}
	s.live = false
	s.rd.Exit(s.v)
}

// Read runs f inside a read-side critical section on v. The section is
// closed even if f panics (the panic is re-raised), so a panicking
// reader can never wedge future covering grace periods. The *Scope
// handed to f is dead as soon as f returns.
func (g *R) Read(v Value, f func(*Scope)) {
	s := g.Enter(v)
	defer exitIfLive(g, s)
	f(s)
}

// exitIfLive is Read's deferred epilogue — a named function, not a
// closure, so the defer stays allocation-free.
func exitIfLive(g *R, s *Scope) {
	if s.live {
		g.Exit(s)
	}
}

// Escape deliberately carries a guarded pointer out of its read scope
// and returns it unchanged. It exists for validated-optimistic
// algorithms (CITRUS locks and re-validates nodes after the traversal
// section closes) where post-section use is proven safe by other
// means. Every call is an auditable assertion of that proof:
// cmd/prcuvet's escape analysis treats Escape results as unguarded and
// flags any other way a guarded pointer leaves its scope.
func Escape[T any](s *Scope, p *T) *T {
	s.check()
	return p
}

// Guarded[T] is an atomic cell — a list head, a current-table pointer,
// a config block — whose value readers may reach only inside a Scope.
// Updater-side methods (Publish, Swap, CompareAndSwap, Update,
// LoadLocked) are named for the exclusion discipline they assume; they
// do not require a Scope because updaters synchronize among themselves
// and manage old values' lifetimes through Retire.
//
// The zero Guarded is empty and ready to use.
type Guarded[T any] struct {
	p atomic.Pointer[T]
}

// NewGuarded returns a cell holding v.
func NewGuarded[T any](v *T) *Guarded[T] {
	g := &Guarded[T]{}
	g.p.Store(v)
	return g
}

// Load returns the current value; it may only be called inside the
// open section s witnesses.
func (g *Guarded[T]) Load(s *Scope) *T {
	s.check()
	return g.p.Load()
}

// Read runs f on the cell's current value inside a panic-safe critical
// section on v — the one-call form for point reads of a single cell.
// The pointer handed to f is guarded: it must not outlive f.
func (g *Guarded[T]) Read(r *R, v Value, f func(*T)) {
	r.Read(v, func(s *Scope) { f(g.p.Load()) })
}

// Publish installs v as the current value. Updater-side: the caller
// must hold whatever exclusion the structure uses for writes, and owns
// retiring the previous value.
func (g *Guarded[T]) Publish(v *T) { g.p.Store(v) }

// Swap installs v and returns the previous value, which the caller now
// owns and must Retire (or leak to the GC) once unlinked everywhere.
func (g *Guarded[T]) Swap(v *T) *T { return g.p.Swap(v) }

// CompareAndSwap installs new iff the cell still holds old.
func (g *Guarded[T]) CompareAndSwap(old, new *T) bool {
	return g.p.CompareAndSwap(old, new)
}

// Update retries f(current) with CompareAndSwap until it installs, and
// returns the replaced value for retirement. f may run several times
// and must be side-effect free; the old value it receives is updater
// state, not a guarded read, and must not be republished after Update
// returns.
func (g *Guarded[T]) Update(f func(old *T) *T) (replaced *T) {
	for {
		old := g.p.Load()
		if g.p.CompareAndSwap(old, f(old)) {
			return old
		}
	}
}

// LoadLocked returns the current value on the updater side. The caller
// must hold the structure's update exclusion (a bucket lock, a resize
// mutex); under that exclusion the value cannot be retired out from
// underneath it.
func (g *Guarded[T]) LoadLocked() *T { return g.p.Load() }

// Cell[T] is the intrusive atomic link of an RCU data structure: the
// next pointer of a list node, the child edge of a tree. Readers load
// it only through a Scope; updaters store through it under their own
// exclusion. The zero Cell is nil and ready to use.
type Cell[T any] struct {
	p atomic.Pointer[T]
}

// Load returns the linked node; it may only be called inside the open
// section s witnesses.
func (c *Cell[T]) Load(s *Scope) *T {
	s.check()
	return c.p.Load()
}

// LoadLocked returns the linked node on the updater side; the caller
// must hold the structure's update exclusion for this link.
func (c *Cell[T]) LoadLocked() *T { return c.p.Load() }

// Store publishes v through the link. Updater-side: any node v makes
// newly reachable must be fully initialized before the call, and any
// node the store unlinks stays valid for pre-existing readers until a
// covering grace period (Retire handles that).
func (c *Cell[T]) Store(v *T) { c.p.Store(v) }

// CompareAndSwap publishes new iff the link still holds old.
func (c *Cell[T]) CompareAndSwap(old, new *T) bool {
	return c.p.CompareAndSwap(old, new)
}

// Retire schedules free(v) (or just the grace period, when free is
// nil) behind a wait covering p, declaring unsafe.Sizeof(*v) retained
// bytes. v must already be unlinked from every guarded cell —
// cmd/prcuvet flags retirements it cannot see an unlink before. For a
// hot retire path, bind a Retirer once instead: this convenience form
// allocates a small adapter per call.
func Retire[T any](rec *reclaim.Reclaimer, p Predicate, v *T, free func(*T)) {
	RetireBytes(rec, p, v, 0, free)
}

// RetireBytes is Retire with extra retained bytes declared on top of
// unsafe.Sizeof(*v) — for nodes that own out-of-line memory (string
// bodies, slices) the type's footprint does not show.
func RetireBytes[T any](rec *reclaim.Reclaimer, p Predicate, v *T, extra int, free func(*T)) {
	bytes := int(unsafe.Sizeof(*v)) + extra
	if free == nil {
		rec.Retire(v, p, bytes, nil)
		return
	}
	rec.Retire(v, p, bytes, func(x any) { free(x.(*T)) })
}

// Retirer[T] binds a reclaimer, a per-node byte declaration and a typed
// free callback once, so the per-retirement path is allocation-free and
// fully typed: no per-call adapter closure, one type assertion that can
// never be wrong because only *T enters.
type Retirer[T any] struct {
	rec     *reclaim.Reclaimer
	bytes   int
	freeAny func(any)
}

// NewRetirer returns a Retirer declaring unsafe.Sizeof(T)+extra bytes
// per retirement and running free (which may be nil) after each node's
// covering grace period.
func NewRetirer[T any](rec *reclaim.Reclaimer, extra int, free func(*T)) *Retirer[T] {
	r := &Retirer[T]{
		rec:   rec,
		bytes: int(unsafe.Sizeof(*(*T)(nil))) + extra,
	}
	if free != nil {
		r.freeAny = func(x any) { free(x.(*T)) }
	}
	return r
}

// Retire schedules the bound free for v behind a wait covering p. v
// must already be unlinked; see Retire.
func (r *Retirer[T]) Retire(p Predicate, v *T) {
	r.rec.Retire(v, p, r.bytes, r.freeAny)
}

// NodeBytes reports the bytes a Retirer[T] declares per node with the
// given extra — exposed so structures can surface their accounting
// unit in docs and tests.
func (r *Retirer[T]) NodeBytes() int { return r.bytes }
