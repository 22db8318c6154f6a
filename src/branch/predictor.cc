#include "predictor.hh"

#include "util/bitutil.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace rsr::branch
{

namespace
{
constexpr std::uint32_t bpSnapshotTag = fourcc('G', 'S', 'B', 'P');
constexpr std::uint32_t bpSnapshotVersion = 1;
} // namespace

GsharePredictor::GsharePredictor(const PredictorParams &params)
    : params_(params)
{
    rsr_assert(isPowerOf2(params_.phtEntries), "PHT entries must be 2^n");
    rsr_assert(isPowerOf2(params_.btbEntries), "BTB entries must be 2^n");
    rsr_assert(params_.historyBits <= 32, "history register too wide");
    rsr_assert(params_.rasEntries >= 1, "RAS needs at least one entry");
    phtMask = params_.phtEntries - 1;
    btbMask = params_.btbEntries - 1;
    ghrMask = static_cast<std::uint32_t>(maskBits(params_.historyBits));
    pht.assign(params_.phtEntries, counter::weaklyNotTaken);
    btb.assign(params_.btbEntries, BtbEntry{});
    ras.assign(params_.rasEntries, 0);
}

void
GsharePredictor::reset()
{
    pht.assign(params_.phtEntries, counter::weaklyNotTaken);
    btb.assign(params_.btbEntries, BtbEntry{});
    ras.assign(params_.rasEntries, 0);
    ghr_ = 0;
    rasTop = 0;
    rasCount = 0;
}

void
GsharePredictor::setRasContents(const std::vector<std::uint64_t> &entries)
{
    ras.assign(params_.rasEntries, 0);
    rasTop = 0;
    rasCount = 0;
    // Fill bottom-up so the first element of `entries` ends on top.
    for (auto it = entries.rbegin(); it != entries.rend(); ++it)
        rasPush(*it);
}

std::vector<std::uint64_t>
GsharePredictor::rasContents() const
{
    std::vector<std::uint64_t> out;
    out.reserve(rasCount);
    unsigned idx = rasTop;
    for (unsigned i = 0; i < rasCount; ++i) {
        out.push_back(ras[idx]);
        idx = (idx + params_.rasEntries - 1) % params_.rasEntries;
    }
    return out;
}

void
GsharePredictor::snapshot(Serializer &out) const
{
    out.begin(bpSnapshotTag, bpSnapshotVersion);
    out.putU32(params_.phtEntries);
    out.putU32(params_.btbEntries);
    out.putU32(params_.rasEntries);
    out.putBytes(pht.data(), pht.size());
    out.putU32(ghr_);
    for (const auto &e : btb) {
        out.putU64(e.tag);
        out.putU64(e.target);
        out.putU8(e.valid ? 1 : 0);
    }
    for (auto v : ras)
        out.putU64(v);
    out.putU32(rasTop);
    out.putU32(rasCount);
    out.end();
}

void
GsharePredictor::restore(Deserializer &in)
{
    in.begin(bpSnapshotTag, bpSnapshotVersion);
    const std::uint32_t pht_in = in.getU32();
    const std::uint32_t btb_in = in.getU32();
    const std::uint32_t ras_in = in.getU32();
    if (pht_in != params_.phtEntries || btb_in != params_.btbEntries ||
        ras_in != params_.rasEntries)
        rsr_throw_corrupt("predictor snapshot geometry ", pht_in, "/",
                          btb_in, "/", ras_in, " (pht/btb/ras) does not "
                          "match configured ", params_.phtEntries, "/",
                          params_.btbEntries, "/", params_.rasEntries);
    in.getBytes(pht.data(), pht.size());
    ghr_ = in.getU32();
    for (auto &e : btb) {
        e.tag = in.getU64();
        e.target = in.getU64();
        e.valid = in.getU8() != 0;
    }
    for (auto &v : ras)
        v = in.getU64();
    rasTop = in.getU32();
    rasCount = in.getU32();
    in.end();
}

} // namespace rsr::branch
