/**
 * @file
 * The per-Einsum performance model: consumes the executor's trace
 * events and produces per-component action counts and per-tensor DRAM
 * traffic (paper §4.3 "trace consumption").
 *
 * The model is split into two tiers along the order-dependence
 * boundary (see model/tables.hpp):
 *
 *   model/accumulator.hpp    ShardAccumulator — order-independent
 *                            datapath counters (compute, sequencer,
 *                            intersection, coordinate scans, streamed
 *                            accesses, per-PE loads). Mergeable;
 *                            sharded runs execute one per shard,
 *                            inside the shard, off the capture-mode
 *                            trace bus.
 *   model/storage_replay.hpp StorageReplay — order-dependent storage
 *                            simulation (buffets, shared LRU caches,
 *                            DRAM fills/drains, partial outputs).
 *                            Fed only in serial event order.
 *
 * ModelObserver is the thin façade composing both over one shared
 * ModelTables: on the serial path it routes every record to its tier
 * inline; on the sharded path the executor's capture filter consumes
 * the datapath records in-shard (ModelObserver::makeShardSinks) and
 * only the stateful remainder flows through the coordinator's
 * in-order replay into this observer. finalize() merges the shard
 * accumulators in shard-index order and assembles an EinsumRecord
 * byte-identical at every thread count (all model sums are dyadic
 * rationals — integers, halves, bits/8 — so accumulation order cannot
 * perturb them; only the storage tier's state genuinely needs the
 * serial order).
 *
 * Storage bindings route tensor accesses through buffet/cache
 * simulators; misses and drains charge the DRAM. Unbound tensors
 * stream: every logical access pays DRAM traffic (no on-chip reuse).
 * Datapath events (compute, co-iteration, merges) accumulate on the
 * bound functional components with per-PE counters so load imbalance
 * is captured.
 */
#pragma once

#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "binding/binding.hpp"
#include "exec/executor.hpp"
#include "format/format.hpp"
#include "ir/plan.hpp"
#include "model/accumulator.hpp"
#include "model/record.hpp"
#include "model/storage_replay.hpp"
#include "model/tables.hpp"
#include "trace/observer.hpp"

namespace teaal::model
{

/**
 * Streaming trace consumer for one Einsum.
 *
 * Construct, pass to the Executor as the observer, run, then call
 * finalize() to harvest the EinsumRecord. For sharded runs, also hand
 * the executor the model hooks (classifier / coordinatorSink /
 * makeShardSinks) via exec::ExecOptions::modelHooks so the datapath
 * tier runs inside the shards.
 */
class ModelObserver : public trace::Observer
{
  public:
    /**
     * @param plan      The lowered Einsum (must outlive the observer).
     * @param topo      The architecture topology bound to this Einsum.
     * @param eb        Its binding.
     * @param formats   Format specification (concrete representations).
     * @param on_chip   Tensors that stay on chip (intermediates of a
     *                  fused block): their DRAM charges are skipped.
     */
    ModelObserver(const ir::EinsumPlan& plan, const arch::Topology& topo,
                  const binding::EinsumBinding& eb,
                  const fmt::FormatSpec& formats,
                  const std::set<std::string>& on_chip);

    /**
     * Trace entry point: one virtual call per batch, then each record
     * goes to its tier by the classifier — stateful records to the
     * storage replay, datapath records to the coordinator's
     * accumulator.
     */
    void onEventBatch(const trace::EventBatch& batch) override;

    /**
     * Drain remaining buffers, merge the shard accumulators (in
     * shard-index order, after the coordinator's own), and produce
     * the record.
     */
    EinsumRecord finalize(const exec::ExecutionStats& stats);

    // ------------------------------------------- sharded-model hooks
    // What exec::ExecOptions::modelHooks carries for a parallel run
    // with no extra trace observers attached.

    /** The record classifier for capture-filter routing. */
    const trace::RecordClassifier& classifier() const
    {
        return tables_.classifier;
    }

    /** Datapath sink for records the coordinator emits itself
     *  (live-executed shards, the top-walk summary). */
    trace::Observer& coordinatorSink() { return accum_; }

    /**
     * Create @p n per-shard accumulators (one per shard, addresses
     * stable) and return them as capture-filter sinks. Called once,
     * on the coordinating thread, before workers start; each sink is
     * then used by at most one thread.
     */
    std::vector<trace::Observer*> makeShardSinks(std::size_t n);

    /** The shared resolved tables (tests / tooling). */
    const ModelTables& tables() const { return tables_; }

  private:
    ModelTables tables_;
    ShardAccumulator accum_;
    StorageReplay replay_;
    std::deque<ShardAccumulator> shardAccums_;

    std::size_t traceEvents_ = 0;
    std::size_t traceBatches_ = 0;
};

} // namespace teaal::model
