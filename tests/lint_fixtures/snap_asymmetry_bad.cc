// Seeded violations for snap-asymmetry: `c_` is written by snapshot()
// but never read back by restore(), and the common members `a_` / `b_`
// are restored in the opposite order they were snapshotted — framed
// payloads are positional, so both silently corrupt replayed state.
#include <cstdint>

namespace rsr
{

class Serializer
{
  public:
    void begin(std::uint32_t tag, std::uint32_t version);
    void end();
    void putU64(std::uint64_t v);
};

class Deserializer
{
  public:
    void begin(std::uint32_t tag, std::uint32_t version);
    void end();
    std::uint64_t getU64();
};

class Snapshotable
{
  public:
    virtual ~Snapshotable() = default;
    virtual void snapshot(Serializer &out) const = 0;
    virtual void restore(Deserializer &in) = 0;
};

constexpr std::uint32_t pairTag = 0x50414952;
constexpr std::uint32_t pairVersion = 1;

class Pair : public Snapshotable
{
  public:
    void
    snapshot(Serializer &out) const override
    {
        out.begin(pairTag, pairVersion);
        out.putU64(a_);
        out.putU64(b_);
        out.putU64(c_);
        out.end();
    }

    void
    restore(Deserializer &in) override
    {
        in.begin(pairTag, pairVersion);
        b_ = in.getU64();
        a_ = in.getU64();
        in.end();
    }

  private:
    std::uint64_t a_ = 0;
    std::uint64_t b_ = 0;
    std::uint64_t c_ = 0;
};

} // namespace rsr
