#include "megakv.h"

#include "core/checksum_store.h" // mixHash

namespace gpulp {

MegaKv::MegaKv(Device &dev, uint32_t buckets, uint32_t batch_ops)
    : dev_(dev), buckets_(buckets), batch_ops_(batch_ops)
{
    GPULP_ASSERT(buckets_ > 0, "need at least one bucket");
    GPULP_ASSERT(batch_ops_ % kThreads == 0,
                 "batch size must be a multiple of %u", kThreads);
    keys_ = ArrayRef<uint32_t>::allocate(dev.mem(),
                                         uint64_t{buckets_} * kWays);
    values_ = ArrayRef<uint32_t>::allocate(dev.mem(),
                                           uint64_t{buckets_} * kWays);
    op_keys_ = ArrayRef<uint32_t>::allocate(dev.mem(), batch_ops_);
    op_values_ = ArrayRef<uint32_t>::allocate(dev.mem(), batch_ops_);
    results_ = ArrayRef<uint32_t>::allocate(dev.mem(), batch_ops_);
    statuses_ = ArrayRef<uint32_t>::allocate(dev.mem(), batch_ops_);
    // The insert kernel pre-checks a bucket slot with a plain load
    // before claiming it with atomicCAS, and values travel with plain
    // stores; erase clears slots plainly. Which block wins a contended
    // bucket is therefore schedule-dependent unless the table follows
    // block-rank order: declare both halves ordered so functional
    // results stay bit-identical at any worker count. The per-op
    // arrays (op_keys_/op_values_/results_) are indexed by global
    // thread id — never shared across blocks — and stay ungated.
    dev.addOrderedRegion(keys_.base(), keys_.size() * sizeof(uint32_t));
    dev.addOrderedRegion(values_.base(),
                         values_.size() * sizeof(uint32_t));
}

LaunchConfig
MegaKv::launchConfig() const
{
    return LaunchConfig(Dim3(batch_ops_ / kThreads), Dim3(kThreads));
}

uint32_t
MegaKv::bucketOf(uint32_t key) const
{
    return mixHash(key, 0x6b76u) % buckets_;
}

void
MegaKv::stageInserts(const std::vector<std::pair<uint32_t, uint32_t>> &kv)
{
    GPULP_ASSERT(kv.size() == batch_ops_, "batch must have %u ops",
                 batch_ops_);
    for (uint32_t i = 0; i < batch_ops_; ++i) {
        GPULP_ASSERT(kv[i].first != 0, "keys must be nonzero");
        op_keys_.hostAt(i) = kv[i].first;
        op_values_.hostAt(i) = kv[i].second;
    }
}

void
MegaKv::stageKeys(const std::vector<uint32_t> &keys)
{
    GPULP_ASSERT(keys.size() == batch_ops_, "batch must have %u ops",
                 batch_ops_);
    for (uint32_t i = 0; i < batch_ops_; ++i)
        op_keys_.hostAt(i) = keys[i];
}

void
MegaKv::insertKernel(ThreadCtx &t, const LpContext *lp)
{
    PersistAccum acc = makePersistAccum(lp);

    const uint32_t op = static_cast<uint32_t>(t.globalThreadIdx());
    uint32_t key = t.load(op_keys_, op);
    uint32_t value = t.load(op_values_, op);
    uint32_t bucket = bucketOf(key);
    t.compute(kChargeInsert);

    uint32_t status = kKvMiss; // all kWays slots taken: a dropped insert
    // Pass 1: scan the WHOLE bucket for the key before touching any
    // empty slot. Claiming the first empty way would double-store a
    // key that sits in a later way behind an erase-freed slot; the
    // duplicate shadows updates and survives a single erase.
    for (uint32_t way = 0; way < kWays; ++way) {
        uint64_t slot = uint64_t{bucket} * kWays + way;
        if (t.load(keys_, slot) == key) {
            // Update in place (not folded: lazy folds post-state below).
            persistStoreU32NoFold(t, lp, acc, values_, slot, value);
            status = kKvUpdated;
            break;
        }
    }
    // Pass 2: the key is absent — claim the first empty slot.
    for (uint32_t way = 0; status == kKvMiss && way < kWays; ++way) {
        uint64_t slot = uint64_t{bucket} * kWays + way;
        if (t.load(keys_, slot) != 0)
            continue;
        // The atomic claim gets the same coverage as a plain store:
        // prepare before the CAS (eager logs the slot's old key —
        // benign on a failed CAS, since the ordered-region declaration
        // means a cross-block race cannot slip a foreign claim between
        // the log read and the CAS), publish after a successful one.
        persistPrepare(t, lp, acc, keys_.addrOf(slot), 4);
        uint32_t old = t.atomicCAS(keys_.addrOf(slot), 0, key);
        if (old == 0 || old == key) {
            persistPublish(t, lp, keys_.addrOf(slot));
            persistStoreU32NoFold(t, lp, acc, values_, slot, value);
            status = old == 0 ? kKvHit : kKvUpdated;
        }
        // Otherwise the slot raced away; keep scanning this bucket.
    }
    persistStoreU32NoFold(t, lp, acc, statuses_, op, status);
    // Lazy folds the post-state actually left in the table: a dropped
    // insert leaves the key absent, and validation will recompute 0
    // for it — an application-level miss, not a checksum mismatch.
    // Folding the operand value here would turn every full bucket into
    // a false persistency failure.
    persistFold(t, lp, acc, key);
    persistFold(t, lp, acc, status == kKvMiss ? 0u : value);
    persistRegionEnd(t, lp, acc);
}

void
MegaKv::searchKernel(ThreadCtx &t, const LpContext *lp)
{
    PersistAccum acc = makePersistAccum(lp);

    const uint32_t op = static_cast<uint32_t>(t.globalThreadIdx());
    uint32_t key = t.load(op_keys_, op);
    uint32_t bucket = bucketOf(key);
    t.compute(kChargeSearch);

    uint32_t value = 0;
    uint32_t status = kKvMiss;
    for (uint32_t way = 0; way < kWays; ++way) {
        uint64_t slot = uint64_t{bucket} * kWays + way;
        if (t.load(keys_, slot) == key) {
            value = t.load(values_, slot);
            status = kKvHit;
            break;
        }
    }
    persistStoreU32NoFold(t, lp, acc, results_, op, value);
    // An explicit presence bit: a stored value of 0 (status kKvHit,
    // result 0) is not the same answer as "key absent" (status kKvMiss).
    persistStoreU32NoFold(t, lp, acc, statuses_, op, status);
    persistFold(t, lp, acc, status);
    persistFold(t, lp, acc, value);
    persistRegionEnd(t, lp, acc);
}

void
MegaKv::eraseKernel(ThreadCtx &t, const LpContext *lp)
{
    PersistAccum acc = makePersistAccum(lp);

    const uint32_t op = static_cast<uint32_t>(t.globalThreadIdx());
    uint32_t key = t.load(op_keys_, op);
    uint32_t bucket = bucketOf(key);
    t.compute(kChargeErase);

    uint32_t status = kKvMiss;
    for (uint32_t way = 0; way < kWays; ++way) {
        uint64_t slot = uint64_t{bucket} * kWays + way;
        if (t.load(keys_, slot) == key) {
            persistStoreU32NoFold(t, lp, acc, keys_, slot, 0u);
            persistStoreU32NoFold(t, lp, acc, values_, slot, 0u);
            status = kKvHit;
            break;
        }
    }
    persistStoreU32NoFold(t, lp, acc, statuses_, op, status);
    // Lazy folds the key and its post-erase presence. Unlike insert's
    // drop path this is 0 on *both* outcomes — erased or never there,
    // the key is absent afterwards — which is exactly what
    // validateErases recomputes, so the unconditional fold is honest
    // here.
    persistFold(t, lp, acc, key);
    persistFold(t, lp, acc, 0u);
    persistRegionEnd(t, lp, acc);
}

void
MegaKv::validateInserts(ThreadCtx &t, const LpContext &lp,
                        RecoverySet &failed)
{
    ChecksumAccum acc(lp.cfg->checksum);
    const uint32_t op = static_cast<uint32_t>(t.globalThreadIdx());
    uint32_t key = t.load(op_keys_, op);
    uint32_t bucket = bucketOf(key);
    uint32_t found = 0;
    for (uint32_t way = 0; way < kWays; ++way) {
        uint64_t slot = uint64_t{bucket} * kWays + way;
        if (t.load(keys_, slot) == key) {
            found = t.load(values_, slot);
            break;
        }
    }
    acc.protectU32(t, key);
    acc.protectU32(t, found);
    bool ok = lpValidateRegion(t, lp, acc);
    if (t.flatThreadIdx() == 0 && !ok)
        failed.markFailed(t, t.blockRank());
}

void
MegaKv::validateErases(ThreadCtx &t, const LpContext &lp,
                       RecoverySet &failed)
{
    ChecksumAccum acc(lp.cfg->checksum);
    const uint32_t op = static_cast<uint32_t>(t.globalThreadIdx());
    uint32_t key = t.load(op_keys_, op);
    uint32_t bucket = bucketOf(key);
    uint32_t present = 0;
    for (uint32_t way = 0; way < kWays; ++way) {
        uint64_t slot = uint64_t{bucket} * kWays + way;
        if (t.load(keys_, slot) == key) {
            present = 1;
            break;
        }
    }
    acc.protectU32(t, key);
    acc.protectU32(t, present);
    bool ok = lpValidateRegion(t, lp, acc);
    if (t.flatThreadIdx() == 0 && !ok)
        failed.markFailed(t, t.blockRank());
}

bool
MegaKv::hostLookup(uint32_t key, uint32_t *value) const
{
    uint32_t bucket = bucketOf(key);
    for (uint32_t way = 0; way < kWays; ++way) {
        uint64_t slot = uint64_t{bucket} * kWays + way;
        if (keys_.hostAt(slot) == key) {
            if (value)
                *value = values_.hostAt(slot);
            return true;
        }
    }
    return false;
}

std::unordered_map<uint32_t, uint32_t>
MegaKv::hostSnapshot() const
{
    std::unordered_map<uint32_t, uint32_t> live;
    for (uint64_t slot = 0; slot < uint64_t{buckets_} * kWays; ++slot) {
        uint32_t key = keys_.hostAt(slot);
        if (key != 0)
            live.emplace(key, values_.hostAt(slot));
    }
    return live;
}

uint64_t
MegaKv::tableBytes() const
{
    return (keys_.size() + values_.size()) * sizeof(uint32_t);
}

} // namespace gpulp
