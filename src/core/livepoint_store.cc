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

namespace rsr::core
{

namespace
{

/** Index frame tag and version. v5 is the first index in the 16-byte
 *  frame header (no per-frame checksum: the container's index FNV covers
 *  these bytes); its machine metadata is the machine schema's bytes
 *  (config_file.hh), store forwarding included. Older stores are
 *  rejected as version skew and must be recaptured. */
constexpr std::uint32_t indexTag = fourcc('L', 'V', 'P', 'T');
constexpr std::uint32_t indexVersion = 5;

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

/**
 * Feeds captured clusters into a blob store as the front half runs. This
 * is the store boundary: the one place a warmed machine becomes
 * snapshot bytes.
 */
class CaptureSink : public ReplaySink
{
  public:
    CaptureSink(BlobStoreWriter &writer,
                std::vector<LivePointEntry> &entries)
        : writer(writer), entries(entries)
    {}

    /** Largest machine snapshot written, in bytes. */
    std::uint64_t peakSnapshotBytes = 0;

    void
    onCluster(ClusterReplayTask task) override
    {
        rsr_assert(task.machine, "captured cluster carries no machine");
        LivePointEntry e;
        e.cluster = task.cluster;
        e.firstSeq = task.trace.empty() ? 0 : task.trace.front().seq;
        const auto state = snapshotToBytes(*task.machine);
        peakSnapshotBytes =
            std::max<std::uint64_t>(peakSnapshotBytes, state.size());
        e.stateHash = writer.add(state);

        trace::TraceEncoder encoder;
        for (const auto &d : task.trace)
            encoder.append(d);
        e.traceHash = writer.add(encoder.bytes());

        if (task.context) {
            ByteSink ctx;
            Serializer s(ctx);
            task.context->snapshot(s);
            e.contextHash = writer.add(ctx.take());
            e.hasContext = true;
        }
        entries.push_back(e);
    }

  private:
    BlobStoreWriter &writer;
    std::vector<LivePointEntry> &entries;
};

} // namespace

LivePointStore
LivePointStore::create(const func::Program &program, WarmupPolicy &policy,
                       const SampledConfig &config,
                       const std::string &workload_name,
                       const std::string &policy_name,
                       SampledResult *front_half,
                       const CaptureAnnotations *annotations)
{
    BlobStoreWriter writer;
    std::vector<LivePointEntry> entries;
    CaptureSink sink(writer, entries);

    // The deferred front half is the producer pass: skip + reconstruct +
    // capture, no timing. Replays from the store therefore compute the
    // same estimator as runSampled, by construction.
    ClusterScheduleDriver driver(program, policy, config);
    SampledResult front = driver.runDeferred(sink);
    front.phases.peakSnapshotBytes = sink.peakSnapshotBytes;
    if (front_half)
        *front_half = front;

    const EstimatorOptions est_opts =
        annotations ? annotations->estimator : EstimatorOptions{};
    const std::uint64_t candidate_count =
        annotations ? annotations->candidateCount : 0;
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
    index.putU64(candidate_count);
    const auto machine_bytes = machineBytes(config.machine);
    index.putU64(machine_bytes.size());
    index.putBytes(machine_bytes.data(), machine_bytes.size());
    index.putU64(writer.addedBytes());
    index.putU64(entries.size());
    for (const auto &e : entries) {
        index.putU64(e.cluster.start);
        index.putU64(e.cluster.size);
        index.putU64(e.firstSeq);
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
    store.meta_.candidateCount = in.getU64();
    const std::uint64_t machine_len = in.getU64();
    if (machine_len > in.frameRemaining())
        rsr_throw_corrupt("live-point index machine metadata of ",
                          machine_len, " bytes overruns its frame");
    FaultInjector::global().checkAlloc("livepoint_store:machine",
                                       machine_len);
    std::vector<std::uint8_t> machine_bytes(machine_len);
    in.getBytes(machine_bytes.data(), machine_bytes.size());
    store.meta_.machine = machineFromBytes(machine_bytes);
    store.offeredBytes_ = in.getU64();
    const std::uint64_t count = in.getU64();
    if (count > in.frameRemaining() / 53) // 53 payload bytes per entry
        rsr_throw_corrupt("live-point index claims ", count,
                          " entries in ", in.frameRemaining(), " bytes");
    FaultInjector::global().checkAlloc("livepoint_store:entries",
                                       count * sizeof(LivePointEntry));
    store.entries_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        LivePointEntry e;
        e.cluster.start = in.getU64();
        e.cluster.size = in.getU64();
        e.firstSeq = in.getU64();
        e.stateHash = in.getU64();
        e.traceHash = in.getU64();
        e.hasContext = in.getU8() != 0;
        e.contextHash = in.getU64();
        e.group = in.getU32();

        // Fail at load, not mid-replay: every referenced blob must be
        // present, and the trace blob must hold exactly cluster.size
        // well-formed records.
        store.reader_->blob(e.stateHash);
        const std::uint64_t records =
            trace::countTraceRecords(store.reader_->blob(e.traceHash));
        if (records != e.cluster.size)
            rsr_throw_corrupt("live-point entry ", i, " trace blob holds ",
                              records, " records, cluster has ",
                              e.cluster.size, " insts");
        if (e.hasContext)
            store.reader_->blob(e.contextHash);
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
                           const SampledConfig &config)
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
    return h.value();
}

std::uint64_t
LivePointStore::configHash(const std::string &workload,
                           const std::string &policy,
                           const SampledConfig &config,
                           const EstimatorOptions &estimator,
                           std::uint64_t candidate_count)
{
    std::uint64_t h = configHash(workload, policy, config);
    if (estimator.kind == SamplingPolicyKind::UniformCluster)
        return h;
    // Fold the selection inputs, not the selection itself: the explicit
    // schedule is a pure function of these, and hashing the inputs lets
    // the CLI validate a store against flags without a proxy pass.
    Fnv64 fold;
    ByteSink params;
    params.putU64(h);
    params.putU8(static_cast<std::uint8_t>(estimator.kind));
    params.putU8(static_cast<std::uint8_t>(estimator.proxy));
    params.putU64(estimator.setSize);
    params.putU64(estimator.strata);
    params.putU64(estimator.phase1PerStratum);
    params.putU64(estimator.rankSeed);
    params.putU64(candidate_count);
    // Two-phase picks its final schedule from pilot clusters timed on
    // the whole machine, so its selection depends on core.* too.
    if (estimator.kind == SamplingPolicyKind::TwoPhaseStratified) {
        const auto machine = machineBytes(config.machine);
        params.putBytes(machine.data(), machine.size());
    }
    fold.update(params.bytes().data(), params.size());
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
    return configHash(meta_.workload, meta_.policy, config, meta_.estimator,
                      meta_.candidateCount);
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
