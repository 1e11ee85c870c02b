#include "model/model.hpp"

#include "trace/batch.hpp"

namespace teaal::model
{

ModelObserver::ModelObserver(const ir::EinsumPlan& plan,
                             const arch::Topology& topo,
                             const binding::EinsumBinding& eb,
                             const fmt::FormatSpec& formats,
                             const std::set<std::string>& on_chip)
    : tables_(ModelTables::build(plan, topo, eb, formats, on_chip)),
      accum_(tables_), replay_(tables_)
{
}

void
ModelObserver::onEventBatch(const trace::EventBatch& batch)
{
    // Record order is preserved within each tier, and the datapath
    // tier is order-free, so every count (cache hits included) is the
    // same as the sharded path's in-shard split produces.
    ++traceBatches_;
    traceEvents_ += batch.events.size();
    const trace::RecordClassifier& cls = tables_.classifier;
    for (const trace::Event& e : batch.events) {
        if (cls.stateful(e))
            replay_.consume(e);
        else
            accum_.consume(e);
    }
}

std::vector<trace::Observer*>
ModelObserver::makeShardSinks(std::size_t n)
{
    shardAccums_.clear();
    std::vector<trace::Observer*> sinks;
    sinks.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
        shardAccums_.emplace_back(tables_);
        sinks.push_back(&shardAccums_.back());
    }
    return sinks;
}

EinsumRecord
ModelObserver::finalize(const exec::ExecutionStats& stats)
{
    EinsumRecord record = tables_.skeleton;

    // Deterministic merge: the coordinator's own accumulator first,
    // then the shard accumulators in shard-index order. (The sums are
    // exact regardless — see the file comment — the fixed order makes
    // that property unnecessary rather than load-bearing.)
    for (const ShardAccumulator& sa : shardAccums_)
        accum_.merge(sa);
    accum_.mergeInto(record);
    replay_.finalizeInto(record);

    record.execStats = stats;
    // Standalone (non-pipeline) use: what this observer received. The
    // pipeline overwrites these with the executor bus's counts, which
    // also account for shard-consumed records at threads >= 2.
    record.traceEvents = traceEvents_;
    record.traceBatches = traceBatches_;
    return record;
}

} // namespace teaal::model
