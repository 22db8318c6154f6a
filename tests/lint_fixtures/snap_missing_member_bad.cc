// Seeded violation for snap-missing-member: `lost_` is a data member of
// a Snapshotable type but is referenced in neither snapshot() nor
// restore(), and carries no snap-excluded marker — replayed state would
// silently keep the constructed value.
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

constexpr std::uint32_t widgetTag = 0x57494447;
constexpr std::uint32_t widgetVersion = 1;

class Widget : public Snapshotable
{
  public:
    void
    snapshot(Serializer &out) const override
    {
        out.begin(widgetTag, widgetVersion);
        out.putU64(kept_);
        out.end();
    }

    void
    restore(Deserializer &in) override
    {
        in.begin(widgetTag, widgetVersion);
        kept_ = in.getU64();
        in.end();
    }

  private:
    std::uint64_t kept_ = 0;
    std::uint64_t lost_ = 0;
};

} // namespace rsr
