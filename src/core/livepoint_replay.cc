/**
 * @file
 * Hot half of the live-point store: decoding a stored cluster into a
 * replay task. Every container byte was validated when the store was
 * opened (content hashes, blob presence, trace records), so this path runs
 * assertion-checked decode only — no exceptional control flow.
 *
 * rsrlint: hot — decode runs once per replayed cluster on every consumer
 * pass; keep stream flushes and exceptional paths out of it.
 */

#include "livepoint_store.hh"

#include "trace/trace.hh"
#include "util/logging.hh"
#include "util/serial.hh"
#include "util/snapshot.hh"

namespace rsr::core
{

ClusterReplayTask
LivePointStore::makeReplayTask(std::size_t index) const
{
    rsr_assert(index < entries_.size(),
               "live-point replay index out of range");
    const LivePointEntry &e = entries_[index];

    ClusterReplayTask task;
    task.index = index;
    task.cluster = e.cluster;
    const auto state = reader_->blob(e.stateHash);
    task.machineState.assign(state.begin(), state.end());

    // Decode the committed trace. Sequence numbers are regenerated from
    // the entry's firstSeq — the trace is a contiguous commit stream, and
    // the timing model indexes its ROB by absolute sequence number.
    trace::TraceDecoder in(reader_->blob(e.traceHash), e.firstSeq);
    task.trace.resize(e.cluster.size);
    for (auto &d : task.trace)
        in.next(d);
    rsr_assert(in.exhausted(), "trace blob decode left trailing bytes");

    if (e.hasContext) {
        ByteSource ctx_src(reader_->blob(e.contextHash));
        Deserializer ctx(ctx_src);
        task.context = restoreMeasureContext(ctx);
    }
    return task;
}

} // namespace rsr::core
