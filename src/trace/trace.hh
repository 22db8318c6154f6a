/**
 * @file
 * The committed-instruction trace codec: a compact, delta-compressed
 * record format for DynInst streams, plus trace files built on it and an
 * InstSource adapter so the timing model can run trace-driven (the
 * paper's Section 4 contrasts its execution-driven model with
 * trace-driven simulation — this module provides the latter mode, and
 * makes workloads portable across hosts without re-executing the
 * functional simulator).
 *
 * This is the only coder of the record format. Trace files carry it
 * after a header, and live-point stores (core/livepoint_store.hh) keep
 * each cluster's committed trace as one headerless record payload.
 *
 * Record layout:
 *   kind byte  — bit0: pc == previous nextPc (sequential fetch)
 *                bit1: instruction is a memory operation
 *                bit2: control transfer redirected (taken)
 *   [pc]       — zigzag varint delta from previous pc, if !bit0
 *   word       — the 32-bit encoded instruction
 *   [target]   — zigzag varint of nextPc - (pc + 4), if bit2
 *   [effAddr]  — zigzag varint delta from the previous effAddr, if bit1
 *
 * A trace file is a 28-byte header — a magic, a format version, the
 * record count, and an FNV-1a checksum of the payload — followed by the
 * payload. The reader validates all four and the record structure and
 * throws CorruptInputError on truncation or bit flips. Files are
 * published with util/fileio's atomicWriteFile, so a crash mid-record
 * never leaves a torn trace.
 */

#ifndef RSR_TRACE_TRACE_HH
#define RSR_TRACE_TRACE_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "func/dyninst.hh"
#include "func/program.hh"
#include "uarch/core.hh"
#include "util/serial.hh"

namespace rsr::trace
{

/** Encodes committed instructions into an in-memory record payload. */
class TraceEncoder
{
  public:
    /** Append one committed instruction. */
    void append(const func::DynInst &d);

    std::uint64_t records() const { return records_; }
    /** The payload encoded so far. */
    const std::vector<std::uint8_t> &bytes() const { return out.bytes(); }

  private:
    ByteSink out;
    std::uint64_t records_ = 0;
    std::uint64_t prevPc = 0;
    std::uint64_t prevNextPc = 0;
    std::uint64_t prevEffAddr = 0;
};

/**
 * Decodes a record payload the caller has already validated (checksum
 * or countTraceRecords()). Malformed bytes fail an assertion rather
 * than raise CorruptInputError, so exception-free hot paths may use it.
 */
class TraceDecoder
{
  public:
    /** Decode @p payload, numbering records' seq from @p first_seq. */
    explicit TraceDecoder(std::span<const std::uint8_t> payload,
                          std::uint64_t first_seq = 0)
        : in(payload), seq(first_seq)
    {}

    /** Decode the next record; the payload must hold one. */
    void next(func::DynInst &out);

    /** Every payload byte decoded? */
    bool exhausted() const { return in.exhausted(); }

  private:
    ByteSource in;
    std::uint64_t seq;
    std::uint64_t prevPc = 0;
    std::uint64_t prevNextPc = 0;
    std::uint64_t prevEffAddr = 0;
};

/**
 * Walk a record payload without building DynInsts and return how many
 * records it holds. Throws CorruptInputError if the payload ends inside
 * a record (a short record or trailing bytes), a varint overruns 64
 * bits, or a kind byte sets unknown bits.
 */
std::uint64_t countTraceRecords(std::span<const std::uint8_t> payload);

/** Writes a trace file: records buffer in memory until close(). */
class TraceWriter
{
  public:
    /** Target @p path; nothing is written before close(). */
    explicit TraceWriter(const std::string &path) : path(path) {}

    /** Append one committed instruction. */
    void append(const func::DynInst &d) { encoder.append(d); }

    /** Atomically publish header + payload at the path. */
    void close();

    std::uint64_t records() const { return encoder.records(); }
    /** Payload bytes encoded so far (excluding the header). */
    std::uint64_t payloadBytes() const { return encoder.bytes().size(); }

  private:
    std::string path;
    TraceEncoder encoder;
};

/** Streams a trace file as an InstSource for the timing model. */
class TraceReader : public uarch::InstSource
{
  public:
    /** Open and validate @p path. */
    explicit TraceReader(const std::string &path);

    // The decoder points into the payload.
    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    bool next(func::DynInst &out) override;

    /** Total records in the file. */
    std::uint64_t records() const { return records_; }
    /** Restart from the first record. */
    void rewind() { decoder = TraceDecoder(payload); }

  private:
    std::vector<std::uint8_t> payload;
    TraceDecoder decoder{payload};
    std::uint64_t records_ = 0;
};

/**
 * Record the first @p n committed instructions of @p program to @p path.
 * Returns the number of records written (less than @p n only if the
 * program halts early).
 */
std::uint64_t recordTrace(const func::Program &program, std::uint64_t n,
                          const std::string &path);

} // namespace rsr::trace

#endif // RSR_TRACE_TRACE_HH
