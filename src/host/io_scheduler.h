// Page-level flash transaction scheduler: the dispatch stage between the
// host submission queues and the device — and, with scheduled GC routing,
// the single arbiter of ALL device work, host and background alike.
//
// Admitted host requests arrive already split into single-page
// sched::FlashTransactions.  The scheduler keeps a ready set and at most
// `device_slots` transactions in flight (the device's internal command
// queue); each completion event frees a slot and pulls the next winner, so
// dispatch is driven entirely by the simulation event queue and is
// deterministic.
//
// Dispatch order is the scheduler's whole point:
//  * kFifo issues strictly in intake order — a read stuck behind a busy
//    die blocks everything after it (head-of-line blocking);
//  * kOutOfOrder ranks by priority class first (host-read > host-write >
//    gc-copy > gc-erase), then picks the ready transaction whose target
//    die frees earliest (die-level conflict detection via the FlashTarget
//    occupancy timelines), tie-breaking on plane then intake order so
//    same-die work stripes across planes deterministically.
//
// GC as preemptible work (FtlConfig::gc_routing = kScheduled): the
// scheduler pulls relocation copies and victim erases from the FTL's
// planner (FtlBase::DrainGcTransactions) into the same ready set.  Because
// GC ranks below host traffic, a ready host read overtakes queued GC
// copies on its die — the read books the earlier timeline slot, which is
// exactly the QoS the inline routing cannot express.  Three guards keep GC
// live:
//  * aging — every host dispatch that overtakes waiting GC bumps the GC
//    transactions' age; at `gc_aging_limit` overtakes a GC transaction is
//    boosted above host writes (never above host reads);
//  * urgency — while the free pool sits at/below gc_threshold_low, all GC
//    work is boosted the same way;
//  * admission — while GC transactions are ready and the pool is at/below
//    the write floor (gc_threshold_low + FtlBase::GcScheduleLead(), sized
//    per variant to cover one victim's claims), host writes are held in
//    the ready set, so sustained writes can never starve the pool below
//    the GC trigger.
// A gc-erase never dispatches before all of its job's copies did (the
// victim must be fully relocated), enforced with a per-victim counter.
//
// Host writes get the same protection against host reads (they strictly
// outrank writes in out-of-order mode): with `write_aging_limit` > 0, a
// ready host write overtaken by that many host-read dispatches is boosted
// into the read rank, so an open-loop read flood can no longer starve
// writes indefinitely.  The limit defaults to 0 (disabled) to preserve the
// seed dispatch order bit-for-bit.
//
// Multi-tenant arbitration (qos::TenantTable attached): within a host
// priority rank whose candidates span tenants, a weighted deficit-round-
// robin pick (plus the min-share reservation floor) chooses the tenant
// first, and only then does the die-availability key order apply among that
// tenant's transactions.  Priority classes stay global — a host read of any
// tenant still outranks every host write — but inside a class tenants drain
// in weight proportion.  GC work carries no tenant and skips arbitration.
//
// Writes have no resolvable die before the FTL's allocator runs at
// dispatch time and use the write-frontier availability probe; unmapped
// reads carry no flash work at all and take a NEUTRAL key (startable now,
// worst plane) so they never leapfrog real work that is also startable.
//
// The ready set is indexed by what decides a pick, so the pick never scans
// every ready transaction:
//  * host writes sit in one intake-ordered FIFO per tenant (one FIFO
//    without tenants).  Every write shares the frontier probe as its key,
//    so within a rank writes order by intake alone and a FIFO's head is its
//    tenant's only write candidate; held writes cost nothing to skip;
//  * host reads sit in one intake-ordered list per tenant and GC work in one
//    list; their keys depend on the mapping and the die timelines at pick
//    time, so those (short) lists are keyed on every pick, never cached;
//  * aging is a counter stamp, not a per-transaction counter: a GC
//    transaction's age is the host dispatches since its intake, a write's
//    the host-read dispatches since its enqueue, and a write was held if an
//    observed admission hold happened since its enqueue.  Ages therefore
//    fall with intake order, so aged work is a prefix of its list.
// The pick is exactly the lowest (rank, key, plane, intake order) among the
// eligible transactions, the same order a full scan of the set would give.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "qos/tenant_table.h"
#include "sched/observer.h"
#include "sched/transaction.h"
#include "sim/event_queue.h"
#include "ssd/ssd.h"
#include "util/types.h"

namespace ctflash::host {

/// Dispatch-order policy; see file header.
enum class SchedPolicy { kFifo = 0, kOutOfOrder = 1 };

const char* SchedPolicyName(SchedPolicy policy);

/// The device-internal transaction type (promoted to ctflash::sched so the
/// FTL can emit GC work through the same path), under its historical name.
using FlashTransaction = sched::FlashTransaction;

class IoScheduler {
 public:
  using TxnCallback =
      std::function<void(const FlashTransaction&, const ftl::RequestResult&)>;

  /// Attaches itself as the FTL's GC sink when the FTL is configured with
  /// GcRouting::kScheduled (from then on the FTL stops running GC inline);
  /// the destructor detaches, handing GC back to the inline path so a
  /// live Ssd is never left with no one collecting.
  /// `gc_aging_limit` has no default here on purpose: HostConfig carries
  /// the documented default, and a second one would silently drift.
  /// `write_aging_limit` 0 disables write aging (the seed behavior);
  /// `tenants` (borrowed, may be null) enables multi-tenant arbitration.
  IoScheduler(ssd::Ssd& ssd, sim::EventQueue& queue, SchedPolicy policy,
              std::uint32_t device_slots, std::uint32_t gc_aging_limit,
              std::uint32_t write_aging_limit = 0,
              qos::TenantTable* tenants = nullptr);
  ~IoScheduler();

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  /// Sink for completed HOST transactions (set once by the host
  /// interface).  GC transactions complete internally and are observable
  /// through the counters below.
  void OnTxnComplete(TxnCallback cb) { on_complete_ = std::move(cb); }

  /// Registers a scheduler observer (borrowed; e.g. obs::Tracer).  Observers
  /// see every dispatch with its resolved DispatchContext and every
  /// execution completion, in deterministic event order.  With no observers
  /// attached the scheduler computes no context at all.
  void AttachObserver(sched::SchedulerObserver* observer);
  void DetachObserver(sched::SchedulerObserver* observer);

  /// Adds a host transaction to the ready set and dispatches while slots
  /// allow.  The scheduler stamps the global intake sequence.  With tenants
  /// attached the transaction must name one (std::invalid_argument).
  void Enqueue(FlashTransaction txn);

  std::uint32_t InFlight() const { return in_flight_; }
  std::size_t ReadyCount() const { return ready_count_; }
  std::uint64_t DispatchedCount() const { return dispatched_; }
  /// Highest number of simultaneously in-flight transactions observed.
  std::uint32_t PeakInFlight() const { return peak_in_flight_; }
  SchedPolicy policy() const { return policy_; }
  std::uint32_t gc_aging_limit() const { return gc_aging_limit_; }
  std::uint32_t write_aging_limit() const { return write_aging_limit_; }
  /// Host writes that dispatched with their aging boost active (telemetry
  /// for the read-flood starvation bound).
  std::uint64_t AgedWriteDispatches() const { return aged_write_dispatches_; }

  // --- GC routing observability --------------------------------------------
  /// GC transactions currently waiting in the ready set.
  std::size_t GcReadyCount() const { return gc_.size(); }
  std::uint64_t GcDispatchedCount() const { return gc_dispatched_; }
  std::uint64_t GcCompletedCount() const { return gc_completed_; }
  /// Host-read dispatches that overtook at least one ready GC transaction
  /// (the preemption events the scheduled routing exists for).
  std::uint64_t ReadPreemptionsOfGc() const { return read_preemptions_; }
  /// Picks at which host writes were held by the admission guard.
  std::uint64_t WriteHoldPicks() const { return write_hold_picks_; }

 private:
  /// A ready transaction plus the counter stamps its aging and hold state
  /// derive from (see file header).
  struct ReadyTxn {
    FlashTransaction txn;
    /// Intake time (observer latency attribution; unused by scheduling).
    Us enqueue_us = 0;
    /// GC: host_dispatches_ at intake.  Host write: read_dispatches_ at
    /// enqueue.  The age is the counter's advance since.
    std::uint64_t age_stamp = 0;
    /// Host write: observed_hold_picks_ at enqueue; held once it advanced.
    std::uint64_t hold_stamp = 0;
  };

  /// One tenant's host writes in intake order, consumed from `head` (a
  /// vector plus a cursor: O(1) pops without per-node allocation).
  struct WriteFifo {
    std::vector<ReadyTxn> items;
    std::size_t head = 0;

    bool empty() const { return head == items.size(); }
    const ReadyTxn& front() const { return items[head]; }
  };

  /// Out-of-order sort key within a priority rank: earliest cell-op start
  /// on the target die plus the plane stripe tie-break, then intake order.
  struct DispatchKey {
    Us start = 0;
    std::uint32_t plane = 0;
    std::uint64_t seq = 0;

    bool operator<(const DispatchKey& o) const {
      if (start != o.start) return start < o.start;
      if (plane != o.plane) return plane < o.plane;
      return seq < o.seq;
    }
  };

  /// Which list a pick came from; `lane` is the tenant's index (0 without
  /// tenants), `index` the position in a read or GC list.
  enum class Pool : std::uint8_t { kRead, kWrite, kGc };
  struct Pick {
    Pool pool = Pool::kRead;
    std::uint32_t lane = 0;
    std::size_t index = 0;
  };

  /// Worse than every priority rank (0..4): nothing is eligible.
  static constexpr int kNoRank = 5;
  /// Neutral plane for transactions with no die work (unmapped reads):
  /// loses every tie against real flash work, wins only over later starts.
  static constexpr std::uint32_t kNeutralPlane = ~0u;
  /// Worse than every real key (no transaction reaches the last intake
  /// sequence): the starting point of a minimum search.
  static constexpr DispatchKey kNoKey{std::numeric_limits<Us>::max(),
                                      kNeutralPlane, ~0ull};

  void Pump();
  /// Drains the FTL's scheduled-GC planner into the ready set.
  void PullGcWork();
  /// Tenant index of a host transaction (0 without tenants).
  std::uint32_t LaneOf(const FlashTransaction& txn) const;
  /// A gc-erase waits until all of its job's copies dispatched.
  bool ErasePending(const FlashTransaction& txn) const;
  /// Rank of an eligible GC transaction: boosted (urgent or aged) or its
  /// class rank.
  int GcRankOf(const ReadyTxn& rt, bool urgent) const;
  /// True when a ready host write has been overtaken by
  /// `write_aging_limit` host reads and competes in the read rank.
  bool WriteAged(const ReadyTxn& rt) const;
  /// The next transaction to dispatch, or false when nothing is eligible
  /// (held writes / gated erases wait for state to change).
  bool PickNext(bool urgent, bool writes_held, Pick& pick);
  bool PickFifo(bool writes_held, Pick& pick) const;
  /// The winning candidate of rank 0 (reads plus aged writes) in `lane`.
  void PickReadRank(std::uint32_t lane, bool writes_held, Pick& pick,
                    DispatchKey& best) const;
  DispatchKey KeyOf(const FlashTransaction& txn) const;
  /// Resolves the observer-facing dispatch context (target die and its
  /// availability); only computed when observers are attached.
  sched::DispatchContext ContextOf(const ReadyTxn& rt) const;
  /// Removes the picked transaction from the ready set.
  ReadyTxn Take(const Pick& pick);
  void Dispatch(const Pick& pick);

  ssd::Ssd& ssd_;
  sim::EventQueue& queue_;
  SchedPolicy policy_;
  std::uint32_t device_slots_;
  std::uint32_t gc_aging_limit_;
  std::uint32_t write_aging_limit_;
  /// Borrowed from the host interface; non-null only in multi-tenant mode.
  /// PickNext arbitrates through it — tenant DRR state advances exactly
  /// once per dispatched transaction.
  qos::TenantTable* tenants_;
  bool attached_gc_ = false;  ///< this scheduler is the FTL's GC sink
  std::uint32_t in_flight_ = 0;
  std::uint32_t peak_in_flight_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t next_seq_ = 0;
  /// The ready set (see file header): per-tenant write FIFOs, per-tenant
  /// read lists and one GC list, each in intake order.
  std::vector<WriteFifo> writes_;
  std::vector<std::vector<ReadyTxn>> reads_;
  std::vector<ReadyTxn> gc_;
  std::size_t ready_count_ = 0;
  std::size_t writes_ready_ = 0;
  /// Aging and hold clocks the ReadyTxn stamps are read against.
  std::uint64_t host_dispatches_ = 0;
  std::uint64_t read_dispatches_ = 0;
  /// Admission-guard holds that happened with observers attached (the
  /// observer-visible write_held flag).
  std::uint64_t observed_hold_picks_ = 0;
  /// Copies of a GC job not yet dispatched, keyed by victim block; the
  /// job's erase is eligible only once its entry drains to zero.
  std::unordered_map<BlockId, std::uint32_t> gc_copies_undispatched_;
  std::vector<sched::FlashTransaction> gc_intake_;  ///< drain scratch buffer
  /// Per-tenant "has eligible work in the winning rank" scratch for
  /// PickNext.
  std::vector<bool> arb_active_;
  std::uint64_t gc_dispatched_ = 0;
  std::uint64_t gc_completed_ = 0;
  std::uint64_t read_preemptions_ = 0;
  std::uint64_t write_hold_picks_ = 0;
  std::uint64_t aged_write_dispatches_ = 0;
  TxnCallback on_complete_;
  /// Dispatch/execution observers (e.g. obs::Tracer), in attach order.
  std::vector<sched::SchedulerObserver*> observers_;
};

}  // namespace ctflash::host
