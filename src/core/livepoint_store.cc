/**
 * @file
 * Cold half of the live-point store: capture, index
 * serialization/parsing, and validation. The replay-task decode hot path
 * lives in livepoint_replay.cc.
 */

#include "livepoint_store.hh"

#include <algorithm>

#include "core/config_file.hh"
#include "func/funcsim.hh"
#include "trace/trace.hh"
#include "util/checksum.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/fileio.hh"
#include "util/logging.hh"
#include "util/serial.hh"
#include "util/snapshot.hh"
#include "util/timer.hh"

namespace rsr::core
{

namespace
{

/** Index frame tag and version. The frame has the 16-byte header (no
 *  per-frame checksum: the container's index FNV covers these bytes);
 *  its machine metadata is the machine schema's bytes (config_file.hh).
 *  It stores nothing derivable: the candidate count, the offered bytes
 *  and each trace's first sequence number follow from the metadata and
 *  the referenced blobs. Older stores are rejected as version skew and
 *  must be recaptured. */
constexpr std::uint32_t indexTag = fourcc('L', 'V', 'P', 'T');
constexpr std::uint32_t indexVersion = 6;
/** Index payload bytes per entry: start, size, state hash, trace hash,
 *  context flag, context hash, group. */
constexpr std::uint64_t entryBytes = 8 + 8 + 8 + 8 + 1 + 8 + 4;

void
putString(Serializer &out, const std::string &s)
{
    out.putU64(s.size());
    out.putBytes(s.data(), s.size());
}

std::string
getString(Deserializer &in)
{
    const std::uint64_t len = in.getU64();
    if (len > in.frameRemaining())
        rsr_throw_corrupt("live-point index string of ", len,
                          " bytes overruns its frame");
    FaultInjector::global().checkAlloc("livepoint_store:string", len);
    std::string s(len, '\0');
    in.getBytes(s.data(), s.size());
    return s;
}

} // namespace

LivePointStore
LivePointStore::create(const func::Program &program, WarmupPolicy &policy,
                       const SampledConfig &config,
                       const std::string &workload_name,
                       const std::string &policy_name,
                       SampledResult *front_half,
                       const CaptureAnnotations *annotations)
{
    // The sampled run's front half — skip, reconstruct, capture, no
    // timing — so replays from the store compute the same estimator as
    // runSampled, by construction. Each cluster boundary is the store
    // boundary: the one place a warm machine becomes snapshot bytes.
    WallTimer timer;
    BlobStoreWriter writer;
    std::vector<LivePointEntry> entries;
    std::uint64_t peak_snapshot_bytes = 0;
    const std::vector<Cluster> schedule = scheduleFor(config);
    RegionConsumer consumer(policy, 0, config);
    consumer.prepare(program, schedule, config.deadline);
    RegionProducer producer(program, schedule, {&policy}, config);
    RegionLog region;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        producer.produce(region);
        consumer.consume(region, [&](const Machine &warm,
                                     std::unique_ptr<MeasureContext> ctx) {
            // Replay numbers the trace from cluster.start (FuncSim
            // numbers instructions from 0), so the index need not store
            // it.
            rsr_assert(region.trace.empty() ||
                           region.trace.front().seq == region.cluster.start,
                       "captured trace does not start at its cluster's "
                       "first instruction ", region.cluster.start);
            LivePointEntry e;
            e.cluster = region.cluster;
            const auto state = snapshotToBytes(warm);
            peak_snapshot_bytes =
                std::max<std::uint64_t>(peak_snapshot_bytes, state.size());
            e.stateHash = writer.add(state);

            trace::TraceEncoder encoder;
            for (const auto &d : region.trace)
                encoder.append(d);
            e.traceHash = writer.add(encoder.bytes());

            if (ctx) {
                ByteSink ctx_bytes;
                Serializer out(ctx_bytes);
                ctx->snapshot(out);
                e.contextHash = writer.add(ctx_bytes.take());
                e.hasContext = true;
            }
            entries.push_back(e);
        });
    }
    SampledResult front = consumer.finish(producer.counters(), 1.0);
    front.seconds = timer.seconds();
    front.phases.peakSnapshotBytes = peak_snapshot_bytes;
    if (front_half)
        *front_half = front;

    const EstimatorOptions est_opts =
        annotations ? annotations->estimator : EstimatorOptions{};
    if (annotations) {
        rsr_assert(annotations->groups.size() == entries.size(),
                   "capture annotations carry ",
                   annotations->groups.size(), " groups for ",
                   entries.size(), " captured clusters");
        for (std::size_t i = 0; i < entries.size(); ++i)
            entries[i].group = annotations->groups[i];
    }

    ByteSink index_sink;
    Serializer index(index_sink);
    index.begin(indexTag, indexVersion);
    putString(index, workload_name);
    putString(index, policy_name);
    index.putU64(config.totalInsts);
    index.putU64(config.scheduleSeed);
    index.putU64(config.regimen.numClusters);
    index.putU64(config.regimen.clusterSize);
    index.putU8(static_cast<std::uint8_t>(est_opts.kind));
    index.putU8(static_cast<std::uint8_t>(est_opts.proxy));
    index.putU64(est_opts.setSize);
    index.putU64(est_opts.strata);
    index.putU64(est_opts.phase1PerStratum);
    index.putU64(est_opts.rankSeed);
    const auto machine_bytes = machineBytes(config.machine);
    index.putU64(machine_bytes.size());
    index.putBytes(machine_bytes.data(), machine_bytes.size());
    index.putU64(entries.size());
    for (const auto &e : entries) {
        index.putU64(e.cluster.start);
        index.putU64(e.cluster.size);
        index.putU64(e.stateHash);
        index.putU64(e.traceHash);
        index.putU8(e.hasContext ? 1 : 0);
        index.putU64(e.contextHash);
        index.putU32(e.group);
    }
    index.end();

    // Re-open our own container: one validation path, exercised on every
    // create, and the store's internal state always mirrors its bytes.
    return deserialize(writer.finish(index_sink.take()));
}

LivePointStore
LivePointStore::deserialize(std::vector<std::uint8_t> bytes)
{
    LivePointStore store;
    store.reader_ = std::make_unique<BlobStoreReader>(std::move(bytes));

    ByteSource src(store.reader_->index());
    Deserializer in(src);
    in.begin(indexTag, indexVersion);
    store.meta_.workload = getString(in);
    store.meta_.policy = getString(in);
    store.meta_.totalInsts = in.getU64();
    store.meta_.scheduleSeed = in.getU64();
    store.meta_.regimen.numClusters = in.getU64();
    store.meta_.regimen.clusterSize = in.getU64();
    const std::uint8_t kind = in.getU8();
    const std::uint8_t proxy = in.getU8();
    if (kind >
        static_cast<std::uint8_t>(SamplingPolicyKind::TwoPhaseStratified))
        rsr_throw_corrupt("live-point index names unknown sampling "
                          "policy kind ", int{kind});
    if (proxy > static_cast<std::uint8_t>(ProxyKind::BbvDistance))
        rsr_throw_corrupt("live-point index names unknown proxy kind ",
                          int{proxy});
    store.meta_.estimator.kind = static_cast<SamplingPolicyKind>(kind);
    store.meta_.estimator.proxy = static_cast<ProxyKind>(proxy);
    store.meta_.estimator.setSize = in.getU64();
    store.meta_.estimator.strata = in.getU64();
    store.meta_.estimator.phase1PerStratum = in.getU64();
    store.meta_.estimator.rankSeed = in.getU64();
    const std::uint64_t machine_len = in.getU64();
    if (machine_len > in.frameRemaining())
        rsr_throw_corrupt("live-point index machine metadata of ",
                          machine_len, " bytes overruns its frame");
    FaultInjector::global().checkAlloc("livepoint_store:machine",
                                       machine_len);
    std::vector<std::uint8_t> machine_bytes(machine_len);
    in.getBytes(machine_bytes.data(), machine_bytes.size());
    store.meta_.machine = machineFromBytes(machine_bytes);
    const std::uint64_t count = in.getU64();
    if (count > in.frameRemaining() / entryBytes)
        rsr_throw_corrupt("live-point index claims ", count,
                          " entries in ", in.frameRemaining(), " bytes");
    FaultInjector::global().checkAlloc("livepoint_store:entries",
                                       count * sizeof(LivePointEntry));
    store.entries_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        LivePointEntry e;
        e.cluster.start = in.getU64();
        e.cluster.size = in.getU64();
        e.stateHash = in.getU64();
        e.traceHash = in.getU64();
        e.hasContext = in.getU8() != 0;
        e.contextHash = in.getU64();
        e.group = in.getU32();

        // Fail at load, not mid-replay: every referenced blob must be
        // present, and the trace blob must hold exactly cluster.size
        // well-formed records. Every reference counts as offered bytes.
        store.offeredBytes_ += store.reader_->blob(e.stateHash).size();
        const auto trace = store.reader_->blob(e.traceHash);
        store.offeredBytes_ += trace.size();
        const std::uint64_t records = trace::countTraceRecords(trace);
        if (records != e.cluster.size)
            rsr_throw_corrupt("live-point entry ", i, " trace blob holds ",
                              records, " records, cluster has ",
                              e.cluster.size, " insts");
        if (e.hasContext)
            store.offeredBytes_ +=
                store.reader_->blob(e.contextHash).size();
        store.entries_.push_back(e);
    }
    in.end();
    if (!src.exhausted())
        rsr_throw_corrupt("live-point index has ", src.remaining(),
                          " trailing bytes after its frame");
    return store;
}

const std::vector<std::uint8_t> &
LivePointStore::serialize() const
{
    return reader_->fileBytes();
}

void
LivePointStore::saveFile(const std::string &path) const
{
    atomicWriteFile(path, serialize());
}

LivePointStore
LivePointStore::loadFile(const std::string &path)
{
    return deserialize(readFileBytes(path));
}

std::uint64_t
LivePointStore::storeHash() const
{
    return reader_->fileHash();
}

std::uint64_t
LivePointStore::configHash(const std::string &workload,
                           const std::string &policy,
                           const SampledConfig &config,
                           const EstimatorOptions &sampling)
{
    Fnv64 h;
    h.update(workload);
    h.update("|", 1);
    h.update(policy);
    h.update("|", 1);
    ByteSink params;
    params.putU64(config.totalInsts);
    params.putU64(config.scheduleSeed);
    params.putU64(config.regimen.numClusters);
    params.putU64(config.regimen.clusterSize);
    const auto capture = machineBytes(config.machine, /*capture_only=*/true);
    params.putBytes(capture.data(), capture.size());
    h.update(params.bytes().data(), params.size());
    if (sampling.kind == SamplingPolicyKind::UniformCluster)
        return h.value();
    // Fold the selection inputs, not the selection itself: the explicit
    // schedule is a pure function of these, and hashing the inputs lets
    // the CLI validate a store against flags without a proxy pass.
    Fnv64 fold;
    ByteSink selection;
    selection.putU64(h.value());
    selection.putU8(static_cast<std::uint8_t>(sampling.kind));
    selection.putU8(static_cast<std::uint8_t>(sampling.proxy));
    selection.putU64(sampling.setSize);
    selection.putU64(sampling.strata);
    selection.putU64(sampling.phase1PerStratum);
    selection.putU64(sampling.rankSeed);
    // Two-phase picks its final schedule from pilot clusters timed on
    // the whole machine, so its selection depends on core.* too.
    if (sampling.kind == SamplingPolicyKind::TwoPhaseStratified) {
        const auto machine = machineBytes(config.machine);
        selection.putBytes(machine.data(), machine.size());
    }
    fold.update(selection.bytes().data(), selection.size());
    return fold.value();
}

std::uint64_t
LivePointStore::configHash() const
{
    SampledConfig config;
    config.regimen = meta_.regimen;
    config.totalInsts = meta_.totalInsts;
    config.scheduleSeed = meta_.scheduleSeed;
    config.machine = meta_.machine;
    return configHash(meta_.workload, meta_.policy, config, meta_.estimator);
}

double
LivePointStore::dedupRatio() const
{
    const std::uint64_t stored = reader_->storedBytes();
    return stored ? static_cast<double>(offeredBytes_) / stored : 1.0;
}

double
LivePointStore::bytesPerCluster() const
{
    return entries_.empty() ? 0.0
                            : static_cast<double>(serialize().size()) /
                                  entries_.size();
}

} // namespace rsr::core
