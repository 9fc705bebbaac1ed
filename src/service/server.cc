#include "server.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace gpulp::service {

namespace {

DeviceParams
makeDeviceParams(const KvServerOptions &opts)
{
    DeviceParams params;
    params.num_workers = opts.num_workers;
    return params;
}

NvmParams
makeNvmParams(const KvServerOptions &opts)
{
    NvmParams params;
    params.cache_bytes = opts.nvm_cache_bytes;
    return params;
}

bool
isMutation(OpType type)
{
    return type != OpType::Search;
}

} // namespace

KvServer::KvServer(const KvServerOptions &opts)
    : opts_(opts), dev_(makeDeviceParams(opts)),
      nvm_(dev_.mem(), makeNvmParams(opts)),
      kv_(dev_, opts.buckets, opts.batch_ops),
      gen_(opts.keyspace, opts.zipf_theta, opts.mix, opts.seed),
      crash_rng_(opts.seed ^ 0x6b765f637261736ull)
{
    GPULP_ASSERT(opts_.checkpoint_batches >= 1,
                 "need at least one checksum-store slot");
    // The staging queue only fills when it sees batch_ops *distinct*
    // insert keys (duplicates coalesce); an undersized key space would
    // stall the generator loop instead of ever dispatching.
    GPULP_ASSERT(opts_.keyspace >= 2 * opts_.batch_ops,
                 "key space (%u) too small for %u-op batches",
                 opts_.keyspace, opts_.batch_ops);
    dev_.attachNvm(&nvm_);
    for (uint32_t i = 0; i < opts_.checkpoint_batches; ++i) {
        runtimes_.push_back(std::make_unique<LpRuntime>(
            dev_, LpConfig::scalable(), kv_.launchConfig()));
    }
    // Baseline checkpoint: the empty table and the cleared checksum
    // stores are the image a first-window crash rewinds to.
    nvm_.persistAll();
}

void
KvServer::foldLatency(uint64_t cycles, ServeReport &report)
{
    obs::HistSnapshot &h = report.latency;
    ++h.count;
    h.sum += cycles;
    h.min = std::min(h.min, cycles);
    h.max = std::max(h.max, cycles);
    ++h.buckets[std::bit_width(cycles)];
    obs::observe(obs::Hist::ServiceRequestLatency, cycles);
}

void
KvServer::generateWindow(uint64_t win_start, uint64_t win_end,
                         ServeReport &report)
{
    if (fullQueue() >= 0)
        return; // backlog already holds a dispatchable batch
    // Arrival cycles depend on how many requests this window admits,
    // so remember where each one landed and stamp them afterwards.
    struct Stamp {
        int type;
        size_t op;
        size_t arrival;
    };
    std::vector<Stamp> stamps;
    while (fullQueue() < 0) {
        Request r = gen_.next();
        const int t = static_cast<int>(r.type);
        std::vector<PendingOp> &q = queues_[t];
        ++report.requests_enqueued;
        obs::add(obs::Ctr::ServiceRequestsEnqueued);
        if (r.type == OpType::Insert) {
            auto it = pending_inserts_.find(r.key);
            if (it != pending_inserts_.end()) {
                // Same key staged twice in one window: last value wins,
                // both requests ride (and are acknowledged with) the
                // one batch slot.
                PendingOp &op = q[it->second];
                op.value = r.value;
                op.arrivals.push_back(0);
                stamps.push_back({t, it->second,
                                  op.arrivals.size() - 1});
                ++report.inserts_coalesced;
                obs::add(obs::Ctr::ServiceInsertsCoalesced);
                continue;
            }
            pending_inserts_.emplace(r.key, q.size());
        }
        q.push_back(PendingOp{r.key, r.value, {0}});
        stamps.push_back({t, q.size() - 1, 0});
    }
    // Spread the admissions uniformly over the window the last batch
    // occupied: the open-loop client does not pause while the device
    // is busy.
    const uint64_t width = win_end - win_start;
    const uint64_t m = stamps.size();
    for (uint64_t j = 0; j < m; ++j) {
        const Stamp &s = stamps[j];
        queues_[s.type][s.op].arrivals[s.arrival] =
            win_start + width * (j + 1) / (m + 1);
    }
}

int
KvServer::fullQueue() const
{
    for (size_t t = 0; t < kNumOpTypes; ++t) {
        if (queues_[t].size() >= opts_.batch_ops)
            return static_cast<int>(t);
    }
    return -1;
}

KvServer::Batch
KvServer::takeBatch(int type)
{
    GPULP_ASSERT(type >= 0, "no queue holds a full batch");
    Batch batch;
    batch.type = static_cast<OpType>(type);
    batch.slot = next_slot_;
    batch.ops = std::move(queues_[type]);
    queues_[type].clear();
    if (batch.type == OpType::Insert)
        pending_inserts_.clear();
    GPULP_ASSERT(batch.ops.size() == opts_.batch_ops,
                 "dispatched a partial batch");
    return batch;
}

void
KvServer::stageBatch(const Batch &batch)
{
    if (batch.type == OpType::Insert) {
        std::vector<std::pair<uint32_t, uint32_t>> kv;
        kv.reserve(batch.ops.size());
        for (const PendingOp &op : batch.ops)
            kv.emplace_back(op.key, op.value);
        kv_.stageInserts(kv);
        return;
    }
    std::vector<uint32_t> keys;
    keys.reserve(batch.ops.size());
    for (const PendingOp &op : batch.ops)
        keys.push_back(op.key);
    kv_.stageKeys(keys);
}

LaunchResult
KvServer::launchBatch(const Batch &batch, const LpContext &ctx)
{
    return dev_.launch(kv_.launchConfig(), [&](ThreadCtx &t) {
        switch (batch.type) {
        case OpType::Insert:
            kv_.insertKernel(t, &ctx);
            break;
        case OpType::Search:
            kv_.searchKernel(t, &ctx);
            break;
        case OpType::Erase:
            kv_.eraseKernel(t, &ctx);
            break;
        }
    });
}

void
KvServer::ackBatch(const Batch &batch, ServeReport &report)
{
    for (size_t i = 0; i < batch.ops.size(); ++i) {
        const PendingOp &op = batch.ops[i];
        const uint32_t status = kv_.statusAt(static_cast<uint32_t>(i));
        switch (batch.type) {
        case OpType::Insert:
            if (status == kKvMiss) {
                // Application-level miss (bucket full), not a
                // persistency failure: the client is told "server
                // full" and the reference state stays untouched.
                ++report.insert_drops;
                obs::add(obs::Ctr::ServiceInsertDrops);
                dropped_[op.key].push_back(op.value);
            } else {
                ref_[op.key] = op.value;
            }
            break;
        case OpType::Search:
            if (status == kKvMiss) {
                ++report.search_misses;
                obs::add(obs::Ctr::ServiceSearchMisses);
            }
            break;
        case OpType::Erase:
            ref_.erase(op.key);
            break;
        }
        for (uint64_t arrival : op.arrivals)
            foldLatency(now_ - arrival, report);
        report.requests_acked += op.arrivals.size();
        obs::add(obs::Ctr::ServiceRequestsAcked, op.arrivals.size());
    }
    ++report.batches_served;
    obs::add(obs::Ctr::ServiceBatchesServed);
}

void
KvServer::ackRecoveredBatch(const Batch &batch, ServeReport &report)
{
    // The crashed batch's device-side status array is a mix of
    // rewound stale bytes (blocks that passed validation) and fresh
    // writes (re-executed blocks), so recompute every outcome from
    // the recovered table instead. Replay order makes this exact:
    // this batch is the last one applied, so a key is present with
    // the op's value iff the insert landed.
    for (const PendingOp &op : batch.ops) {
        if (batch.type == OpType::Insert) {
            uint32_t value = 0;
            const bool present = kv_.hostLookup(op.key, &value);
            if (present && value == op.value) {
                ref_[op.key] = op.value;
            } else {
                ++report.insert_drops;
                obs::add(obs::Ctr::ServiceInsertDrops);
                dropped_[op.key].push_back(op.value);
            }
        } else {
            GPULP_ASSERT(batch.type == OpType::Erase,
                         "search batches are re-executed, not replayed");
            ref_.erase(op.key);
        }
        for (uint64_t arrival : op.arrivals)
            foldLatency(now_ - arrival, report);
        report.requests_acked += op.arrivals.size();
        obs::add(obs::Ctr::ServiceRequestsAcked, op.arrivals.size());
    }
    ++report.batches_served;
    obs::add(obs::Ctr::ServiceBatchesServed);
}

RecoveryReport
KvServer::replayBatch(const Batch &batch, ServeReport &report)
{
    GPULP_ASSERT(isMutation(batch.type), "search batches are not replayed");
    stageBatch(batch);
    LpContext ctx = runtimes_[batch.slot]->context();
    RecoveryReport rr = persistRecover(
        dev_, kv_.launchConfig(), *ctx.strategy,
        [&](ThreadCtx &t, RecoverySet &failed) {
            if (batch.type == OpType::Insert)
                kv_.validateInserts(t, ctx, failed);
            else
                kv_.validateErases(t, ctx, failed);
        },
        [&](ThreadCtx &t) {
            if (batch.type == OpType::Insert)
                kv_.insertKernel(t, &ctx);
            else
                kv_.eraseKernel(t, &ctx);
        });
    const Cycles cycles = rr.validate_cycles + rr.recover_cycles;
    now_ += cycles;
    report.device_busy_cycles += cycles;
    obs::add(obs::Ctr::ServiceBatchesReplayed);
    return rr;
}

void
KvServer::checkpoint(ServeReport &report)
{
    // Retire the replay window: reset every checksum store *before*
    // the flush so the persisted image holds cleared stores — a crash
    // in the next window must not validate a recycled slot against a
    // previous tenant's checksums.
    window_.clear();
    for (auto &rt : runtimes_)
        rt->reset();
    nvm_.persistAll();
    next_slot_ = 0;
    ++report.checkpoints;
}

void
KvServer::handleCrash(Batch crashed, const LpContext &crashed_ctx,
                      Cycles partial_cycles, ServeReport &report)
{
    CrashEvent ev;
    ev.store_point = armed_point_;
    crash_armed_ = false;
    now_ += partial_cycles;
    ev.at_cycle = now_;
    ev.torn_lines = nvm_.crash();
    obs::add(obs::Ctr::ServiceCrashesInjected);
    ev.converged = true;

    // Replay the retained window in dispatch order. A later batch's
    // stray persisted lines can flag an earlier batch's blocks; the
    // in-order pass reconverges each batch before the next one
    // re-asserts its own effects, ending at the acknowledged state.
    auto fold = [&](const RecoveryReport &rr) {
        ++ev.batches_replayed;
        ev.blocks_recovered += rr.blocks_recovered;
        ev.recovery_rounds += rr.rounds;
        ev.recovery_cycles += rr.validate_cycles + rr.recover_cycles;
        ev.converged = ev.converged && rr.converged;
    };
    for (const Batch &batch : window_)
        fold(replayBatch(batch, report));

    // The in-flight batch the crash cut down.
    for (const PendingOp &op : crashed.ops)
        ev.requests_recovered += op.arrivals.size();
    if (isMutation(crashed.type)) {
        fold(replayBatch(crashed, report));
        ackRecoveredBatch(crashed, report);
    } else {
        // No durable effect to recover; answer the clients by
        // re-executing against the recovered table — the same state
        // the original run observed, so the same answers.
        stageBatch(crashed);
        LaunchResult r = launchBatch(crashed, crashed_ctx);
        GPULP_ASSERT(!r.crashed, "crash latch fired during re-execution");
        now_ += r.cycles;
        report.device_busy_cycles += r.cycles;
        ev.recovery_cycles += r.cycles;
        ackBatch(crashed, report);
    }
    ev.availability_gap = now_ - ev.at_cycle;
    obs::observe(obs::Hist::ServiceAvailabilityGap, ev.availability_gap);
    report.crashes.push_back(ev);

    // Recovery left everything persisted; start a fresh window.
    checkpoint(report);
}

void
KvServer::audit(ServeReport &report)
{
    const std::unordered_map<uint32_t, uint32_t> table =
        kv_.hostSnapshot();
    for (const auto &[key, value] : ref_) {
        auto it = table.find(key);
        if (it == table.end() || it->second != value) {
            ++report.acked_lost;
            obs::add(obs::Ctr::ServiceRequestsLost);
        }
    }
    for (const auto &[key, value] : table) {
        if (ref_.find(key) != ref_.end())
            continue;
        auto dropped = dropped_.find(key);
        const bool resurrected =
            dropped != dropped_.end() &&
            std::find(dropped->second.begin(), dropped->second.end(),
                      value) != dropped->second.end();
        if (resurrected)
            ++report.drops_resurrected;
        else
            ++report.phantom_keys;
    }
    report.audit_ok =
        report.acked_lost == 0 && report.phantom_keys == 0;
}

ServeReport
KvServer::serve(uint64_t min_acked, uint32_t crash_points)
{
    GPULP_ASSERT(!served_, "KvServer::serve is single-shot");
    served_ = true;

    ServeReport report;
    report.latency.min = UINT64_MAX;

    uint64_t win_start = 0;
    uint64_t batch_cap = UINT64_MAX;
    while (true) {
        const bool need_acks = report.requests_acked < min_acked;
        const bool pending_crashes =
            schedule_ != nullptr &&
            (schedule_->remaining() > 0 || crash_armed_) &&
            report.batches_served < batch_cap;
        if (!need_acks && !pending_crashes)
            break;

        generateWindow(win_start, now_, report);
        Batch batch = takeBatch(fullQueue());
        LpContext ctx = runtimes_[batch.slot]->context();
        stageBatch(batch);

        // One latch at a time: pull the next scheduled point and arm
        // it as a countdown from the current observed-store count. If
        // the delta overshoots this batch it simply fires in a later
        // one — points are absolute, not per-batch.
        if (schedule_ && !crash_armed_) {
            const uint64_t observed = nvm_.stats().stores_observed;
            const uint64_t point = schedule_->nextAfter(observed);
            if (point != 0) {
                nvm_.crashAfterStores(point - observed);
                crash_armed_ = true;
                armed_point_ = point;
            }
        }

        win_start = now_;
        LaunchResult r = launchBatch(batch, ctx);
        report.device_busy_cycles += r.cycles;
        if (r.crashed) {
            handleCrash(std::move(batch), ctx, r.cycles, report);
            continue;
        }
        now_ += r.cycles;
        obs::observe(obs::Hist::ServiceBatchCycles, r.cycles);
        ackBatch(batch, report);
        if (isMutation(batch.type))
            window_.push_back(std::move(batch));
        ++next_slot_;
        if (next_slot_ == opts_.checkpoint_batches)
            checkpoint(report);

        // The first committed batch calibrates the store horizon the
        // crash points spread over.
        if (schedule_ == nullptr && crash_points > 0) {
            const uint64_t stores_per_batch =
                std::max<uint64_t>(nvm_.stats().stores_observed, 4);
            const uint64_t est_batches = std::max<uint64_t>(
                (min_acked + opts_.batch_ops - 1) / opts_.batch_ops, 2);
            schedule_ = std::make_unique<CrashSchedule>(
                crash_points, stores_per_batch * est_batches,
                crash_rng_);
            batch_cap = 3 * est_batches + 8;
        }
    }
    if (crash_armed_) {
        nvm_.disarmCrash();
        crash_armed_ = false;
    }
    report.total_cycles = now_;
    if (report.latency.count == 0)
        report.latency.min = 0;
    audit(report);
    return report;
}

} // namespace gpulp::service
