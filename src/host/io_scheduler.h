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
#pragma once

#include <cstdint>
#include <functional>
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
  /// allow.  The scheduler stamps the global intake sequence.
  void Enqueue(FlashTransaction txn);

  std::uint32_t InFlight() const { return in_flight_; }
  std::size_t ReadyCount() const { return ready_.size(); }
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
  std::size_t GcReadyCount() const { return gc_ready_; }
  std::uint64_t GcDispatchedCount() const { return gc_dispatched_; }
  std::uint64_t GcCompletedCount() const { return gc_completed_; }
  /// Host-read dispatches that overtook at least one ready GC transaction
  /// (the preemption events the scheduled routing exists for).
  std::uint64_t ReadPreemptionsOfGc() const { return read_preemptions_; }
  /// Picks at which host writes were held by the admission guard.
  std::uint64_t WriteHoldPicks() const { return write_hold_picks_; }

 private:
  /// A ready transaction plus its aging state: overtakes seen by waiting
  /// GC work (any host dispatch) or by waiting host writes (host-read
  /// dispatches, when write aging is enabled).
  struct ReadyTxn {
    FlashTransaction txn;
    std::uint32_t age = 0;
    /// Intake time (observer latency attribution; unused by scheduling).
    Us enqueue_us = 0;
    /// The write-admission guard held this write at least once.
    bool held = false;
  };

  /// Out-of-order sort key within a priority rank: earliest cell-op start
  /// on the target die plus the plane stripe tie-break.
  struct DispatchKey {
    Us start = 0;
    std::uint32_t plane = 0;
  };

  static constexpr std::size_t kNoPick = ~static_cast<std::size_t>(0);
  /// Neutral plane for transactions with no die work (unmapped reads):
  /// loses every tie against real flash work, wins only over later starts.
  static constexpr std::uint32_t kNeutralPlane = ~0u;

  void Pump();
  /// Drains the FTL's scheduled-GC planner into the ready set.
  void PullGcWork();
  bool Eligible(const ReadyTxn& rt, bool write_pressure) const;
  int RankOf(const ReadyTxn& rt, bool urgent) const;
  /// Index of the next transaction to dispatch, or kNoPick when nothing is
  /// eligible (held writes / gated erases wait for state to change).
  std::size_t PickNext(bool urgent, bool write_pressure) const;
  DispatchKey KeyOf(const FlashTransaction& txn, Us write_free_at) const;
  /// Resolves the observer-facing dispatch context (target die and its
  /// availability); only computed when observers are attached.
  sched::DispatchContext ContextOf(const ReadyTxn& rt) const;
  void Dispatch(std::size_t idx);

  ssd::Ssd& ssd_;
  sim::EventQueue& queue_;
  SchedPolicy policy_;
  std::uint32_t device_slots_;
  std::uint32_t gc_aging_limit_;
  std::uint32_t write_aging_limit_;
  /// Borrowed from the host interface; non-null only in multi-tenant mode.
  /// PickNext (const) arbitrates through it — tenant DRR state advances
  /// exactly once per dispatched transaction.
  qos::TenantTable* tenants_;
  bool attached_gc_ = false;  ///< this scheduler is the FTL's GC sink
  std::uint32_t in_flight_ = 0;
  std::uint32_t peak_in_flight_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<ReadyTxn> ready_;
  /// Copies of a GC job not yet dispatched, keyed by victim block; the
  /// job's erase is eligible only once its entry drains to zero.
  std::unordered_map<BlockId, std::uint32_t> gc_copies_undispatched_;
  std::vector<sched::FlashTransaction> gc_intake_;  ///< drain scratch buffer
  /// Per-tenant "has eligible work in the winning rank" scratch for
  /// PickNext (mutable: PickNext is logically const; this is a buffer).
  mutable std::vector<bool> arb_active_;
  std::size_t gc_ready_ = 0;
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
