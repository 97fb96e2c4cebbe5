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
  const std::size_t lanes = tenants_ != nullptr ? tenants_->TenantCount() : 1;
  writes_.resize(lanes);
  reads_.resize(lanes);
  if (tenants_ != nullptr) arb_active_.resize(lanes);
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

std::uint32_t IoScheduler::LaneOf(const FlashTransaction& txn) const {
  return tenants_ != nullptr ? txn.tenant : 0;
}

void IoScheduler::Enqueue(FlashTransaction txn) {
  if (tenants_ != nullptr && txn.tenant >= tenants_->TenantCount()) {
    throw std::invalid_argument("IoScheduler: host transaction without a "
                                "valid tenant in multi-tenant mode");
  }
  txn.seq = next_seq_++;
  if (txn.source == sched::TxnSource::kHostWrite) {
    writes_[LaneOf(txn)].items.push_back(
        ReadyTxn{txn, queue_.Now(), read_dispatches_, observed_hold_picks_});
    ++writes_ready_;
  } else {
    reads_[LaneOf(txn)].push_back(ReadyTxn{txn, queue_.Now(), 0, 0});
  }
  ++ready_count_;
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
    gc_.push_back(ReadyTxn{txn, queue_.Now(), host_dispatches_, 0});
    ++ready_count_;
  }
}

bool IoScheduler::ErasePending(const FlashTransaction& txn) const {
  if (txn.source != sched::TxnSource::kGcErase) return false;
  // The victim must be fully relocated before it is erased.
  const auto it = gc_copies_undispatched_.find(txn.gc_block);
  return it != gc_copies_undispatched_.end() && it->second != 0;
}

int IoScheduler::GcRankOf(const ReadyTxn& rt, bool urgent) const {
  // Ranks derive from the sched::PriorityOf class ordering (host-read >
  // host-write > gc-copy > gc-erase), with one slot between reads and
  // writes reserved for GC that is urgent (pool at the GC trigger) or
  // aged out — boosted GC overtakes host writes, never host reads.  Every
  // host dispatch since intake overtook this transaction (a ready GC
  // transaction means GC work was waiting), so that count is its age.
  constexpr int kBoostedGcRank = 1;
  if (urgent || host_dispatches_ - rt.age_stamp >= gc_aging_limit_) {
    return kBoostedGcRank;
  }
  return sched::PriorityOf(rt.txn.source) + 1;
}

bool IoScheduler::WriteAged(const ReadyTxn& rt) const {
  // Write aging closes the read-flood starvation gap: an aged host write
  // joins the read rank (and competes there on die keys), so sustained
  // reads can defer a write by at most `write_aging_limit` dispatches.
  return write_aging_limit_ > 0 &&
         read_dispatches_ - rt.age_stamp >= write_aging_limit_;
}

IoScheduler::DispatchKey IoScheduler::KeyOf(
    const FlashTransaction& txn) const {
  const auto& geo = ssd_.target().geometry();
  DispatchKey key{0, 0, txn.seq};
  switch (txn.source) {
    case sched::TxnSource::kHostWrite:
      // A write's die is decided by the FTL's write-frontier allocator at
      // dispatch time; the allocator's earliest frontier die is the best
      // prediction of when the program could start.
      key.start = ssd_.ftl().ProbeWriteFreeAt().value_or(0);
      break;
    case sched::TxnSource::kHostRead: {
      const Ppn ppn = ssd_.ftl().ProbePpn(txn.lpn);
      if (ppn == kInvalidPpn) {
        // No flash work at all: startable now, but on no die — the neutral
        // plane loses every tie so it cannot leapfrog real work that is
        // also startable (it has no die to win for anyone).
        key.plane = kNeutralPlane;
        break;
      }
      const BlockId block = geo.BlockOf(ppn);
      key.start = ssd_.target().DieFreeAt(block);
      key.plane = geo.PlaneOfBlock(block);
      break;
    }
    case sched::TxnSource::kGcCopy: {
      // Conflict key of the relocation read: the source page's die (the
      // destination die is the GC frontier's business at execution time).
      const BlockId block = geo.BlockOf(txn.gc_src);
      key.start = ssd_.target().DieFreeAt(block);
      key.plane = geo.PlaneOfBlock(block);
      break;
    }
    case sched::TxnSource::kGcErase:
      key.start = ssd_.target().DieFreeAt(txn.gc_block);
      key.plane = geo.PlaneOfBlock(txn.gc_block);
      break;
  }
  // Work whose die is already free starts now: only the plane and intake
  // order separate it from other startable work.
  key.start = std::max(key.start, queue_.Now());
  return key;
}

sched::DispatchContext IoScheduler::ContextOf(const ReadyTxn& rt) const {
  sched::DispatchContext ctx;
  ctx.dispatch_us = queue_.Now();
  ctx.enqueue_us = rt.enqueue_us;
  ctx.write_held = rt.txn.source == sched::TxnSource::kHostWrite &&
                   observed_hold_picks_ > rt.hold_stamp;
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

bool IoScheduler::PickFifo(bool writes_held, Pick& pick) const {
  // Strict intake order among eligible transactions: the first eligible
  // transaction of each list, lowest seq overall.
  std::uint64_t best_seq = kNoKey.seq;
  auto consider = [&](const ReadyTxn& rt, Pick candidate) {
    if (rt.txn.seq < best_seq) {
      best_seq = rt.txn.seq;
      pick = candidate;
    }
  };
  for (std::uint32_t lane = 0; lane < reads_.size(); ++lane) {
    if (!reads_[lane].empty()) {
      consider(reads_[lane].front(), {Pool::kRead, lane, 0});
    }
    if (!writes_held && !writes_[lane].empty()) {
      consider(writes_[lane].front(), {Pool::kWrite, lane, 0});
    }
  }
  for (std::size_t i = 0; i < gc_.size(); ++i) {
    if (ErasePending(gc_[i].txn)) continue;
    consider(gc_[i], {Pool::kGc, 0, i});
    break;
  }
  return best_seq != kNoKey.seq;
}

void IoScheduler::PickReadRank(std::uint32_t lane, bool writes_held,
                               Pick& pick, DispatchKey& best) const {
  const auto& reads = reads_[lane];
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const DispatchKey key = KeyOf(reads[i].txn);
    if (key < best) {
      best = key;
      pick = {Pool::kRead, lane, i};
    }
  }
  // Aged writes are the FIFO's prefix and share one key, so its head is
  // the lane's only write candidate.
  const WriteFifo& fifo = writes_[lane];
  if (!writes_held && !fifo.empty() && WriteAged(fifo.front())) {
    const DispatchKey key = KeyOf(fifo.front().txn);
    if (key < best) {
      best = key;
      pick = {Pool::kWrite, lane, 0};
    }
  }
}

bool IoScheduler::PickNext(bool urgent, bool writes_held, Pick& pick) {
  if (policy_ == SchedPolicy::kFifo) return PickFifo(writes_held, pick);
  // Out-of-order: lowest priority rank wins; within a rank the earliest
  // predicted die availability, then the plane stripe, then intake order.
  // Host ranks first: 0 = reads + aged writes, 2 = writes.
  int winning_rank = kNoRank;
  for (std::uint32_t lane = 0; lane < reads_.size(); ++lane) {
    if (!reads_[lane].empty()) {
      winning_rank = 0;
      break;
    }
    if (!writes_held && !writes_[lane].empty()) {
      winning_rank = std::min(winning_rank,
                              WriteAged(writes_[lane].front()) ? 0 : 2);
    }
  }
  // GC (ranks 1, 3, 4) matters only when no host read-rank work is ready.
  if (winning_rank != 0) {
    for (const auto& rt : gc_) {
      if (!ErasePending(rt.txn)) {
        winning_rank = std::min(winning_rank, GcRankOf(rt, urgent));
      }
    }
  }
  if (winning_rank == kNoRank) return false;

  if (winning_rank == 0 || winning_rank == 2) {
    // Multi-tenant arbitration inserts one step between the rank and the
    // die key: the tenant table picks the tenant to serve among those with
    // work in the winning rank (weighted DRR + min-share floor), and only
    // that tenant's candidates are keyed.
    std::uint32_t first = 0;
    std::uint32_t last = static_cast<std::uint32_t>(reads_.size());
    if (tenants_ != nullptr) {
      for (std::uint32_t lane = 0; lane < last; ++lane) {
        const bool writes = !writes_held && !writes_[lane].empty();
        arb_active_[lane] =
            winning_rank == 0
                ? !reads_[lane].empty() ||
                      (writes && WriteAged(writes_[lane].front()))
                : writes;
      }
      first = tenants_->PickTenant(winning_rank == 0 ? qos::ArbClass::kRead
                                                     : qos::ArbClass::kWrite,
                                   arb_active_);
      last = first + 1;
    }
    DispatchKey best = kNoKey;
    for (std::uint32_t lane = first; lane < last; ++lane) {
      if (winning_rank == 0) {
        PickReadRank(lane, writes_held, pick, best);
      } else if (!writes_[lane].empty() &&
                 writes_[lane].front().txn.seq < best.seq) {
        // Rank 2 holds only writes, all on the one frontier key: the
        // lowest intake order wins.
        best.seq = writes_[lane].front().txn.seq;
        pick = {Pool::kWrite, lane, 0};
      }
    }
    return true;
  }

  DispatchKey best = kNoKey;
  for (std::size_t i = 0; i < gc_.size(); ++i) {
    if (ErasePending(gc_[i].txn) || GcRankOf(gc_[i], urgent) != winning_rank) {
      continue;
    }
    const DispatchKey key = KeyOf(gc_[i].txn);
    if (key < best) {
      best = key;
      pick = {Pool::kGc, 0, i};
    }
  }
  return true;
}

IoScheduler::ReadyTxn IoScheduler::Take(const Pick& pick) {
  ReadyTxn rt;
  switch (pick.pool) {
    case Pool::kRead: {
      auto& reads = reads_[pick.lane];
      rt = reads[pick.index];
      reads.erase(reads.begin() + static_cast<std::ptrdiff_t>(pick.index));
      break;
    }
    case Pool::kWrite: {
      // Pop the FIFO head; reclaim the consumed prefix once it is at least
      // half the buffer, so the cost stays amortized O(1).
      auto& fifo = writes_[pick.lane];
      rt = fifo.items[fifo.head++];
      if (fifo.empty()) {
        fifo.items.clear();
        fifo.head = 0;
      } else if (fifo.head >= 64 && 2 * fifo.head >= fifo.items.size()) {
        fifo.items.erase(fifo.items.begin(),
                         fifo.items.begin() +
                             static_cast<std::ptrdiff_t>(fifo.head));
        fifo.head = 0;
      }
      --writes_ready_;
      break;
    }
    case Pool::kGc:
      rt = gc_[pick.index];
      gc_.erase(gc_.begin() + static_cast<std::ptrdiff_t>(pick.index));
      break;
  }
  --ready_count_;
  return rt;
}

void IoScheduler::Dispatch(const Pick& pick) {
  const ReadyTxn rt = Take(pick);
  const FlashTransaction& txn = rt.txn;
  ++in_flight_;
  if (in_flight_ > peak_in_flight_) peak_in_flight_ = in_flight_;
  ++dispatched_;
  if (sched::IsGc(txn.source)) {
    ++gc_dispatched_;
    if (txn.source == sched::TxnSource::kGcCopy) {
      const auto it = gc_copies_undispatched_.find(txn.gc_block);
      if (--it->second == 0) gc_copies_undispatched_.erase(it);
    }
  } else {
    // A host dispatch ages waiting GC work (GcRankOf) and a host-read
    // dispatch ages waiting writes (WriteAged) through these clocks.
    ++host_dispatches_;
    if (txn.source == sched::TxnSource::kHostRead) {
      ++read_dispatches_;
      if (!gc_.empty()) ++read_preemptions_;
    } else if (WriteAged(rt)) {
      ++aged_write_dispatches_;
    }
    if (tenants_ != nullptr) {
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
    if (ready_count_ == 0) break;
    const auto& ftl = ssd_.ftl();
    const bool scheduled = ftl.ScheduledGcActive();
    const bool urgent = scheduled && ftl.GcUrgent();
    // Admission guard: while GC work is ready and the pool sits at the
    // write floor, writes wait so GC can replenish first.
    const bool writes_held =
        scheduled && !gc_.empty() && ftl.GcWritePressure();
    if (writes_held && writes_ready_ > 0) {
      ++write_hold_picks_;
      // Holds seen by observers mark every write ready now as held (the
      // tracer attributes its queueing delay to the admission guard).
      if (!observers_.empty()) ++observed_hold_picks_;
    }
    Pick pick;
    if (!PickNext(urgent, writes_held, pick)) break;  // all held/gated
    Dispatch(pick);
  }
}

}  // namespace ctflash::host
