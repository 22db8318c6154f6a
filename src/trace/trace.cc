#include "trace.hh"

#include "func/funcsim.hh"
#include "isa/inst.hh"
#include "util/checksum.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/fileio.hh"

namespace rsr::trace
{

namespace
{

constexpr std::uint64_t traceMagic = 0x52535254524143ull; // "RSRTRAC"
constexpr std::uint32_t traceVersion = 2;
// magic (8) + version (4) + record count (8) + payload checksum (8)
constexpr std::size_t headerBytes = 28;

constexpr std::uint8_t kindSequential = 1;
constexpr std::uint8_t kindMem = 2;
constexpr std::uint8_t kindTaken = 4;
constexpr std::uint8_t kindBits = kindSequential | kindMem | kindTaken;

/** Longest LEB128 encoding of a 64-bit value. */
constexpr std::size_t maxVarintBytes = 10;

std::int64_t
delta(std::uint64_t to, std::uint64_t from)
{
    return static_cast<std::int64_t>(to) - static_cast<std::int64_t>(from);
}

std::uint64_t
addDelta(std::uint64_t base, std::uint64_t zigzag)
{
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(base) +
                                      zigzagDecode(zigzag));
}

} // namespace

void
TraceEncoder::append(const func::DynInst &d)
{
    std::uint8_t kind = 0;
    if (records_ > 0 && d.pc == prevNextPc)
        kind |= kindSequential;
    if (d.inst.isMem())
        kind |= kindMem;
    if (d.taken)
        kind |= kindTaken;
    out.putU8(kind);
    if (!(kind & kindSequential))
        putVarint(out, zigzagEncode(delta(d.pc, prevPc)));
    out.putU32(isa::encode(d.inst));
    if (kind & kindTaken)
        putVarint(out, zigzagEncode(delta(d.nextPc, d.pc + 4)));
    if (kind & kindMem) {
        putVarint(out, zigzagEncode(delta(d.effAddr, prevEffAddr)));
        prevEffAddr = d.effAddr;
    }
    ++records_;
    prevPc = d.pc;
    prevNextPc = d.nextPc;
}

void
TraceDecoder::next(func::DynInst &out)
{
    const std::uint8_t kind = in.getU8();
    const std::uint64_t pc =
        kind & kindSequential ? prevNextPc : addDelta(prevPc, getVarint(in));
    out.inst = isa::decode(in.getU32());
    out.nextPc = kind & kindTaken ? addDelta(pc + 4, getVarint(in)) : pc + 4;
    out.effAddr = 0;
    if (kind & kindMem) {
        prevEffAddr = addDelta(prevEffAddr, getVarint(in));
        out.effAddr = prevEffAddr;
    }
    out.seq = seq++;
    out.pc = pc;
    out.taken = (kind & kindTaken) != 0;
    prevPc = pc;
    prevNextPc = out.nextPc;
}

std::uint64_t
countTraceRecords(const std::vector<std::uint8_t> &payload)
{
    const std::size_t size = payload.size();
    std::size_t pos = 0;
    const auto skip = [&](std::size_t n) {
        if (size - pos < n)
            return false;
        pos += n;
        return true;
    };
    const auto skipVarint = [&] {
        for (std::size_t i = 0; i < maxVarintBytes && pos < size; ++i)
            if (!(payload[pos++] & 0x80))
                return true;
        return false;
    };

    std::uint64_t records = 0;
    while (pos < size) {
        const std::uint8_t kind = payload[pos++];
        const bool ok = (kind & ~kindBits) == 0 &&
                        ((kind & kindSequential) || skipVarint()) &&
                        skip(4) && (!(kind & kindTaken) || skipVarint()) &&
                        (!(kind & kindMem) || skipVarint());
        if (!ok)
            rsr_throw_corrupt("trace record ", records,
                              " is malformed or cut short (byte ", pos,
                              " of ", size, ")");
        ++records;
    }
    return records;
}

void
TraceWriter::close()
{
    const auto &payload = encoder.bytes();
    ByteSink file;
    file.putU64(traceMagic);
    file.putU32(traceVersion);
    file.putU64(encoder.records());
    file.putU64(fnv64(payload.data(), payload.size()));
    file.putBytes(payload.data(), payload.size());
    atomicWriteFile(path, file.bytes());
}

TraceReader::TraceReader(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    try {
        bytes = readFileBytes(path);
    } catch (const UserError &) {
        rsr_throw_user("cannot open trace file: ", path);
    }
    if (bytes.size() < headerBytes)
        rsr_throw_corrupt("trace file too small: ", path, " (",
                          bytes.size(), " bytes)");
    ByteSource hs(bytes.data(), headerBytes);
    if (hs.getU64() != traceMagic)
        rsr_throw_corrupt("not a trace file: ", path);
    const std::uint32_t version = hs.getU32();
    if (version != traceVersion)
        rsr_throw_corrupt("unsupported trace version ", version, " in ",
                          path, " (expected ", traceVersion, ")");
    records_ = hs.getU64();
    const std::uint64_t want_checksum = hs.getU64();
    FaultInjector::global().checkAlloc("trace:" + path,
                                       bytes.size() - headerBytes);
    payload.assign(bytes.begin() + headerBytes, bytes.end());
    if (fnv64(payload.data(), payload.size()) != want_checksum)
        rsr_throw_corrupt("trace payload checksum mismatch in ", path,
                          " (truncated or corrupted file)");
    const std::uint64_t held = countTraceRecords(payload);
    if (held != records_)
        rsr_throw_corrupt("trace ", path, " holds ", held,
                          " records, header says ", records_);
    rewind();
}

bool
TraceReader::next(func::DynInst &out)
{
    if (decoder.exhausted())
        return false;
    decoder.next(out);
    return true;
}

std::uint64_t
recordTrace(const func::Program &program, std::uint64_t n,
            const std::string &path)
{
    func::FuncSim fs(program);
    TraceWriter writer(path);
    func::DynInst d;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (!fs.step(&d))
            break;
        writer.append(d);
    }
    writer.close();
    return writer.records();
}

} // namespace rsr::trace
