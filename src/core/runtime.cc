#include "runtime.h"

#include <cstring>

namespace gpulp {

LpRuntime::LpRuntime(Device &dev, const LpConfig &cfg,
                     const LaunchConfig &launch)
    : dev_(dev), cfg_(cfg)
{
    store_ = makeChecksumStore(dev_, cfg_, launch.numBlocks());
    if (cfg_.reduction == ReductionKind::SequentialGlobal) {
        scratch_ = ArrayRef<uint64_t>::allocate(
            dev_.mem(), launch.numBlocks() * launch.threadsPerBlock());
    }
}

LpContext
LpRuntime::context()
{
    LpContext ctx;
    ctx.cfg = &cfg_;
    ctx.store = store_.get();
    ctx.strategy = this;
    ctx.scratch = scratch_;
    return ctx;
}

void
LpRuntime::regionEnd(ThreadCtx &t, PersistAccum &acc)
{
    lpCommitRegion(t, context(), acc.checksums);
}

LaunchResult
LpRuntime::classify(Device &dev, const LaunchConfig &launch,
                    const ValidateFn &validate, RecoverySet &failed)
{
    GPULP_ASSERT(validate, "lazy recovery needs a validation kernel");
    return dev.launch(launch,
                      [&](ThreadCtx &t) { validate(t, failed); });
}

uint64_t
LpRuntime::footprintBytes() const
{
    uint64_t bytes = store_->footprintBytes();
    if (scratch_.valid())
        bytes += scratch_.size() * sizeof(uint64_t);
    return bytes;
}

void
LpRuntime::reset()
{
    store_->clear();
    if (scratch_.valid()) {
        std::memset(dev_.mem().raw(scratch_.base()), 0,
                    scratch_.size() * sizeof(uint64_t));
    }
}

} // namespace gpulp
