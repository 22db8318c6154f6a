// Clean twin for snap-version-drift: the companion
// snap_version_drift_ok.abi matches the serialized-member list exactly,
// so the recorded fingerprint is fresh and no version bump is required.
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

constexpr std::uint32_t gadgetTag = 0x47414447;
constexpr std::uint32_t gadgetVersion = 1;

class Gadget : public Snapshotable
{
  public:
    void
    snapshot(Serializer &out) const override
    {
        out.begin(gadgetTag, gadgetVersion);
        out.putU64(x_);
        out.putU64(y_);
        out.end();
    }

    void
    restore(Deserializer &in) override
    {
        in.begin(gadgetTag, gadgetVersion);
        x_ = in.getU64();
        y_ = in.getU64();
        in.end();
    }

  private:
    std::uint64_t x_ = 0;
    std::uint64_t y_ = 0;
};

} // namespace rsr
