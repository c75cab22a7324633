#include "par/pipeline.hpp"

#include "kernel/basic.hpp"
#include "kernel/compose.hpp"
#include "kernel/ops.hpp"
#include "obs/runtime_stats.hpp"

namespace congen {

namespace {

/// f(! upstream): map a generator function over a co-expression's stream.
GenPtr mapOverCoExpr(const ProcPtr& f, const Value& upstream) {
  return makeInvokeGen(ConstGen::create(Value::proc(f)),
                       {PromoteGen::create(ConstGen::create(upstream))});
}

}  // namespace

GenPtr Pipeline::chain(GenFactory source, bool lastInline, StopSource* stop) const {
  // Source stage: |> s
  auto pipe = Pipe::create(std::move(source), capacity_, *pool_);
  Value current = Value::coexpr(pipe);

  const std::size_t piped = lastInline && !stages_.empty() ? stages_.size() - 1 : stages_.size();
  if (obs::metricsEnabled()) [[unlikely]] {
    obs::ParStats::get().stages.add(static_cast<std::uint64_t>(piped + 1));  // + the source stage
  }
  for (std::size_t i = 0; i < piped; ++i) {
    // Stage i: |> f_i(! previous). The body factory captures the upstream
    // pipe by value; no locals are shared, so no shadowing is needed.
    GenFactory body = [f = stages_[i], current]() -> GenPtr { return mapOverCoExpr(f, current); };
    auto next = Pipe::create(std::move(body), capacity_, *pool_);
    // Link the producer under its consumer: cancelling (or erroring) a
    // downstream stage cascades upstream, stage by stage, so every
    // producer in the chain unblocks within one queue operation.
    pipe->cancelWith(next->cancelToken());
    pipe = next;
    current = Value::coexpr(pipe);
  }

  if (stop != nullptr) pipe->cancelWith(stop->token());

  if (lastInline && !stages_.empty()) {
    return mapOverCoExpr(stages_.back(), current);
  }
  // ! last-pipe: drain the final stage on the caller's thread.
  return PromoteGen::create(ConstGen::create(current));
}

GenPtr Pipeline::build(GenFactory source) const { return chain(std::move(source), false, nullptr); }

GenPtr Pipeline::buildLastInline(GenFactory source) const {
  return chain(std::move(source), true, nullptr);
}

CancellablePipeline Pipeline::buildCancellable(GenFactory source) const {
  CancellablePipeline result;
  result.gen = chain(std::move(source), false, &result.stop);
  return result;
}

}  // namespace congen
