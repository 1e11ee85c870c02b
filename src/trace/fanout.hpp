/**
 * @file
 * FanoutObserver: one trace sink that forwards every batch to a list
 * of downstream observers. RunOptions uses it to attach extra
 * observers (loggers, counters, ring buffers) alongside the
 * performance model without the engine knowing about multiplexing.
 * Every downstream sink sees the same batches, in the same order.
 */
#pragma once

#include <vector>

#include "trace/batch.hpp"
#include "trace/observer.hpp"

namespace teaal::trace
{

class FanoutObserver : public Observer
{
  public:
    FanoutObserver() = default;

    /** Add a downstream sink; must outlive this observer. */
    void add(Observer* obs) { sinks_.push_back(obs); }

    std::size_t size() const { return sinks_.size(); }

    void
    onEventBatch(const EventBatch& batch) override
    {
        for (Observer* o : sinks_)
            o->onEventBatch(batch);
    }

  private:
    std::vector<Observer*> sinks_;
};

} // namespace teaal::trace
