/**
 * @file
 * Trace sink interface (paper §4.3 "trace generation").
 *
 * The executor runs the mapped loop nest on real fibertrees and
 * records one trace::Event per logical event (loop entry,
 * co-iteration, coordinate scan, tensor access, output write,
 * compute, swizzle, tensor copy); component models subscribe and
 * derive action counts online. Events reach a sink in batches
 * (trace/batch.hpp), one virtual call per batch, in emission order.
 * This replaces the paper's generate-then-consume trace files with a
 * streaming pipeline that produces identical counts without
 * materializing traces.
 *
 * Events carry the PE id derived from the mapping's space ranks so
 * models can capture load imbalance.
 */
#pragma once

namespace teaal::trace
{

struct EventBatch;

/** Receiver of execution events. The base class drops every batch,
 *  so a plain Observer is the null sink. */
class Observer
{
  public:
    virtual ~Observer() = default;

    /**
     * A batch of events from the engine's trace bus (see
     * trace/batch.hpp), in emission order. The batch is valid only
     * for the call.
     */
    virtual void
    onEventBatch(const EventBatch& batch)
    {
        (void)batch;
    }
};

} // namespace teaal::trace
