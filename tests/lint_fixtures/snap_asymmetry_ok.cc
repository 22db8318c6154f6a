// Clean twin for snap-asymmetry: snapshot() and restore() touch the
// same members in the same relative order; a validate-then-assign
// restore style (extra member mentions in checks or error paths) does
// not count as asymmetry.
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
        const std::uint64_t a_in = in.getU64(); // validate a_ first
        a_ = a_in;
        b_ = in.getU64();
        c_ = in.getU64();
        in.end();
    }

  private:
    std::uint64_t a_ = 0;
    std::uint64_t b_ = 0;
    std::uint64_t c_ = 0;
};

} // namespace rsr
