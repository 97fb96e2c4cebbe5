#include "host/io_scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ftl/ftl_base.h"

namespace ctflash::host {

const char* SchedPolicyName(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFifo:
      return "fifo";
    case SchedPolicy::kOutOfOrder:
      return "out-of-order";
  }
  return "?";
}

IoScheduler::IoScheduler(ssd::Ssd& ssd, sim::EventQueue& queue,
                         SchedPolicy policy, std::uint32_t device_slots,
                         std::uint32_t gc_aging_limit,
                         std::uint32_t write_aging_limit,
                         qos::TenantTable* tenants)
    : ssd_(ssd),
      queue_(queue),
      policy_(policy),
      device_slots_(device_slots),
      gc_aging_limit_(gc_aging_limit),
      write_aging_limit_(write_aging_limit),
      tenants_(tenants) {
  if (device_slots == 0) {
    throw std::invalid_argument("IoScheduler: device_slots must be > 0");
  }
  if (gc_aging_limit == 0) {
    throw std::invalid_argument("IoScheduler: gc_aging_limit must be > 0");
  }
  if (tenants_ != nullptr) arb_active_.resize(tenants_->TenantCount());
  if (ssd_.ftl().config().gc_routing == ftl::GcRouting::kScheduled) {
    ssd_.ftl().AttachGcScheduler();
    attached_gc_ = true;
  }
}

IoScheduler::~IoScheduler() {
  if (attached_gc_) ssd_.ftl().DetachGcScheduler();
}

void IoScheduler::AttachObserver(sched::SchedulerObserver* observer) {
  if (observer != nullptr) observers_.push_back(observer);
}

void IoScheduler::DetachObserver(sched::SchedulerObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void IoScheduler::Enqueue(FlashTransaction txn) {
  txn.seq = next_seq_++;
  ready_.push_back(ReadyTxn{txn, 0, queue_.Now(), false});
  Pump();
}

void IoScheduler::PullGcWork() {
  auto& ftl = ssd_.ftl();
  if (!ftl.ScheduledGcActive()) return;
  gc_intake_.clear();
  ftl.DrainGcTransactions(gc_intake_);
  for (auto& txn : gc_intake_) {
    txn.seq = next_seq_++;
    if (txn.source == sched::TxnSource::kGcCopy) {
      gc_copies_undispatched_[txn.gc_block]++;
    }
    ready_.push_back(ReadyTxn{txn, 0, queue_.Now(), false});
    ++gc_ready_;
  }
}

bool IoScheduler::Eligible(const ReadyTxn& rt, bool write_pressure) const {
  switch (rt.txn.source) {
    case sched::TxnSource::kHostWrite:
      // Admission guard: while GC work is ready and the pool sits at the
      // write floor, writes wait so GC can replenish first.
      return !(write_pressure && gc_ready_ > 0);
    case sched::TxnSource::kGcErase: {
      // The victim must be fully relocated before it is erased.
      const auto it = gc_copies_undispatched_.find(rt.txn.gc_block);
      return it == gc_copies_undispatched_.end() || it->second == 0;
    }
    default:
      return true;
  }
}

int IoScheduler::RankOf(const ReadyTxn& rt, bool urgent) const {
  // Ranks derive from the sched::PriorityOf class ordering (host-read >
  // host-write > gc-copy > gc-erase), with one slot between reads and
  // writes reserved for GC that is urgent (pool at the GC trigger) or
  // aged out — boosted GC overtakes host writes, never host reads.
  constexpr int kBoostedGcRank = 1;
  if (sched::IsGc(rt.txn.source) &&
      (urgent || rt.age >= gc_aging_limit_)) {
    return kBoostedGcRank;
  }
  // Write aging closes the read-flood starvation gap: an aged host write
  // joins the read rank (and competes there on die keys), so sustained
  // reads can defer a write by at most `write_aging_limit` dispatches.
  if (rt.txn.source == sched::TxnSource::kHostWrite &&
      write_aging_limit_ > 0 && rt.age >= write_aging_limit_) {
    return 0;
  }
  const int priority = sched::PriorityOf(rt.txn.source);
  return priority == 0 ? 0 : priority + 1;
}

IoScheduler::DispatchKey IoScheduler::KeyOf(const FlashTransaction& txn,
                                            Us write_free_at) const {
  const auto& geo = ssd_.target().geometry();
  switch (txn.source) {
    case sched::TxnSource::kHostWrite:
      // A write's die is decided by the FTL's write-frontier allocator at
      // dispatch time; the allocator's earliest frontier die (probed once
      // per PickNext — it is transaction-independent) is the best
      // prediction of when the program could start.
      return {write_free_at, 0};
    case sched::TxnSource::kHostRead: {
      const Ppn ppn = ssd_.ftl().ProbePpn(txn.lpn);
      if (ppn == kInvalidPpn) {
        // No flash work at all: startable now, but on no die — the neutral
        // plane loses every tie so it cannot leapfrog real work that is
        // also startable (it has no die to win for anyone).
        return {0, kNeutralPlane};
      }
      const BlockId block = geo.BlockOf(ppn);
      return {ssd_.target().DieFreeAt(block), geo.PlaneOfBlock(block)};
    }
    case sched::TxnSource::kGcCopy: {
      // Conflict key of the relocation read: the source page's die (the
      // destination die is the GC frontier's business at execution time).
      const BlockId block = geo.BlockOf(txn.gc_src);
      return {ssd_.target().DieFreeAt(block), geo.PlaneOfBlock(block)};
    }
    case sched::TxnSource::kGcErase:
      return {ssd_.target().DieFreeAt(txn.gc_block),
              geo.PlaneOfBlock(txn.gc_block)};
  }
  return {0, 0};
}

sched::DispatchContext IoScheduler::ContextOf(const ReadyTxn& rt) const {
  sched::DispatchContext ctx;
  ctx.dispatch_us = queue_.Now();
  ctx.enqueue_us = rt.enqueue_us;
  ctx.write_held = rt.held;
  const auto& geo = ssd_.target().geometry();
  switch (rt.txn.source) {
    case sched::TxnSource::kHostRead: {
      const Ppn ppn = ssd_.ftl().ProbePpn(rt.txn.lpn);
      if (ppn != kInvalidPpn) {
        const BlockId block = geo.BlockOf(ppn);
        ctx.die = geo.DieOfBlock(block);
        ctx.die_free_at = ssd_.target().DieFreeAt(block);
      }
      break;
    }
    case sched::TxnSource::kHostWrite:
      // The write's die is the allocator's business at execution time; the
      // frontier probe still bounds when the program can start.
      ctx.die_free_at =
          ssd_.ftl().ProbeWriteFreeAt().value_or(ctx.dispatch_us);
      break;
    case sched::TxnSource::kGcCopy: {
      const BlockId block = geo.BlockOf(rt.txn.gc_src);
      ctx.die = geo.DieOfBlock(block);
      ctx.die_free_at = ssd_.target().DieFreeAt(block);
      break;
    }
    case sched::TxnSource::kGcErase:
      ctx.die = geo.DieOfBlock(rt.txn.gc_block);
      ctx.die_free_at = ssd_.target().DieFreeAt(rt.txn.gc_block);
      break;
  }
  return ctx;
}

std::size_t IoScheduler::PickNext(bool urgent, bool write_pressure) const {
  if (policy_ == SchedPolicy::kFifo) {
    // Strict intake order among eligible transactions: ready_ stays in seq
    // order (push_back + order-preserving erase).
    for (std::size_t i = 0; i < ready_.size(); ++i) {
      if (Eligible(ready_[i], write_pressure)) return i;
    }
    return kNoPick;
  }
  // Out-of-order: lowest priority rank wins; within a rank the earliest
  // predicted die availability, then the plane stripe, then intake order
  // (equal keys keep the earlier index, which is the lower seq).
  const Us now = queue_.Now();
  const Us write_free_at = ssd_.ftl().ProbeWriteFreeAt().value_or(0);

  // Multi-tenant arbitration inserts one step between the rank and the die
  // key: find the winning rank, let the tenant table pick the tenant to
  // serve (weighted DRR + min-share floor), then key-order only within that
  // tenant's candidates.  Without tenants the single-pass pick below is the
  // seed path, byte-for-byte.
  qos::TenantId serve = qos::kNoTenant;
  if (tenants_ != nullptr) {
    // Single pass: track the winning rank, restarting the per-tenant
    // active set whenever a strictly lower rank appears.
    int winning_rank = -1;
    bool any_tenant = false;
    for (std::size_t i = 0; i < ready_.size(); ++i) {
      if (!Eligible(ready_[i], write_pressure)) continue;
      const int rank = RankOf(ready_[i], urgent);
      if (winning_rank < 0 || rank < winning_rank) {
        winning_rank = rank;
        arb_active_.assign(arb_active_.size(), false);
        any_tenant = false;
      }
      if (rank != winning_rank) continue;
      const std::uint32_t tenant = ready_[i].txn.tenant;
      if (tenant == qos::kNoTenant) continue;
      arb_active_[tenant] = true;
      any_tenant = true;
    }
    if (winning_rank < 0) return kNoPick;
    // Host ranks only (0 = reads + aged writes, 2 = writes); GC carries no
    // tenant.  Arbitrate when the rank's candidates name any tenant.
    if (any_tenant && (winning_rank == 0 || winning_rank == 2)) {
      serve = tenants_->PickTenant(
          winning_rank == 0 ? qos::ArbClass::kRead : qos::ArbClass::kWrite,
          arb_active_);
    }
  }

  std::size_t best = kNoPick;
  int best_rank = 0;
  DispatchKey best_key{};
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    if (!Eligible(ready_[i], write_pressure)) continue;
    if (serve != qos::kNoTenant && ready_[i].txn.tenant != serve) continue;
    const int rank = RankOf(ready_[i], urgent);
    // A strictly worse rank can never win, whatever its key — skip the key
    // computation (KeyOf probes the mapping table per candidate, the hot
    // cost of this scan at deep ready queues).
    if (best != kNoPick && rank > best_rank) continue;
    DispatchKey key = KeyOf(ready_[i].txn, write_free_at);
    if (key.start < now) key.start = now;
    if (best == kNoPick || rank < best_rank ||
        (rank == best_rank &&
         (key.start < best_key.start ||
          (key.start == best_key.start && key.plane < best_key.plane)))) {
      best = i;
      best_rank = rank;
      best_key = key;
    }
  }
  return best;
}

void IoScheduler::Dispatch(std::size_t idx) {
  const ReadyTxn rt = ready_[idx];
  ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(idx));
  const FlashTransaction& txn = rt.txn;
  ++in_flight_;
  if (in_flight_ > peak_in_flight_) peak_in_flight_ = in_flight_;
  ++dispatched_;
  if (sched::IsGc(txn.source)) {
    --gc_ready_;
    ++gc_dispatched_;
    if (txn.source == sched::TxnSource::kGcCopy) {
      const auto it = gc_copies_undispatched_.find(txn.gc_block);
      if (--it->second == 0) gc_copies_undispatched_.erase(it);
    }
  } else {
    if (gc_ready_ > 0) {
      // A host dispatch overtook waiting GC work: advance its age toward
      // the boost so deferral stays bounded.
      for (auto& waiting : ready_) {
        if (sched::IsGc(waiting.txn.source)) ++waiting.age;
      }
      if (txn.source == sched::TxnSource::kHostRead) ++read_preemptions_;
    }
    if (write_aging_limit_ > 0) {
      // Same bound for host writes overtaken by host reads.
      if (txn.source == sched::TxnSource::kHostRead) {
        for (auto& waiting : ready_) {
          if (waiting.txn.source == sched::TxnSource::kHostWrite) {
            ++waiting.age;
          }
        }
      } else if (txn.source == sched::TxnSource::kHostWrite &&
                 rt.age >= write_aging_limit_) {
        ++aged_write_dispatches_;
      }
    }
    if (tenants_ != nullptr && txn.tenant != qos::kNoTenant) {
      tenants_->NoteDispatch(txn.tenant,
                             txn.source == sched::TxnSource::kHostRead
                                 ? qos::ArbClass::kRead
                                 : qos::ArbClass::kWrite);
    }
  }
  if (!observers_.empty()) {
    // ContextOf re-resolves the die availability the pick just keyed on;
    // only observers pay for it.
    const sched::DispatchContext ctx = ContextOf(rt);
    for (auto* o : observers_) o->OnDispatch(txn, ctx);
  }
  // SubmitRead/SubmitWrite/SubmitGc service the transaction on the
  // resource timelines immediately and fire `done` as a completion event,
  // so Pump never re-enters itself.  RequestResult::arrival_us is the
  // dispatch time (the Ssd services at queue_.Now()).
  switch (txn.source) {
    case sched::TxnSource::kHostRead:
      ssd_.SubmitRead(txn.offset_bytes, txn.size_bytes, queue_,
                      [this, txn](const ftl::RequestResult& r) {
                        --in_flight_;
                        for (auto* o : observers_) {
                          o->OnTxnExecuted(txn, r.arrival_us, r.completion_us);
                        }
                        if (on_complete_) on_complete_(txn, r);
                        Pump();
                      });
      break;
    case sched::TxnSource::kHostWrite:
      ssd_.SubmitWrite(txn.offset_bytes, txn.size_bytes, queue_,
                       [this, txn](const ftl::RequestResult& r) {
                         --in_flight_;
                         for (auto* o : observers_) {
                           o->OnTxnExecuted(txn, r.arrival_us,
                                            r.completion_us);
                         }
                         if (on_complete_) on_complete_(txn, r);
                         Pump();
                       });
      break;
    case sched::TxnSource::kGcCopy:
    case sched::TxnSource::kGcErase:
      ssd_.SubmitGc(txn, queue_, [this, txn](const ftl::RequestResult& r) {
        --in_flight_;
        ++gc_completed_;
        for (auto* o : observers_) {
          o->OnTxnExecuted(txn, r.arrival_us, r.completion_us);
        }
        Pump();
      });
      break;
  }
}

void IoScheduler::Pump() {
  while (in_flight_ < device_slots_) {
    // Pull freshly planned GC work first: the pool state may have changed
    // with the previous dispatch (writes consume blocks, erases free them).
    PullGcWork();
    if (ready_.empty()) break;
    const auto& ftl = ssd_.ftl();
    const bool scheduled = ftl.ScheduledGcActive();
    const bool urgent = scheduled && ftl.GcUrgent();
    const bool write_pressure = scheduled && ftl.GcWritePressure();
    if (write_pressure && gc_ready_ > 0) {
      bool counted = false;
      for (auto& rt : ready_) {
        if (rt.txn.source == sched::TxnSource::kHostWrite) {
          if (!counted) {
            ++write_hold_picks_;
            counted = true;
          }
          // Mark every held write so the tracer can attribute its queueing
          // delay to the admission guard; without observers the first hit
          // still short-circuits as before.
          if (observers_.empty()) break;
          rt.held = true;
        }
      }
    }
    const std::size_t idx = PickNext(urgent, write_pressure);
    if (idx == kNoPick) break;  // everything ready is held/gated
    Dispatch(idx);
  }
}

}  // namespace ctflash::host
