#include "config.hh"

#include <cmath>

#include "logging.hh"

namespace latte
{

namespace
{

/** Lowercase spec names for the link/static algorithm knobs. */
constexpr struct
{
    const char *name;
    CompressorId id;
} kAlgoSpecs[] = {
    {"bdi", CompressorId::Bdi},     {"fpc", CompressorId::Fpc},
    {"cpack", CompressorId::CpackZ}, {"bpc", CompressorId::Bpc},
    {"sc", CompressorId::Sc},
};

bool
algoFromSpec(const std::string &name, CompressorId &id)
{
    for (const auto &spec : kAlgoSpecs) {
        if (name == spec.name) {
            id = spec.id;
            return true;
        }
    }
    return false;
}

const char *
algoSpecName(CompressorId id)
{
    for (const auto &spec : kAlgoSpecs) {
        if (spec.id == id)
            return spec.name;
    }
    latte_panic("no spec name for compressor id {}",
                static_cast<int>(id));
}

} // namespace

std::optional<std::string>
CacheLevelConfig::validationError(const char *level) const
{
    // Every level is a compression domain, and the compressors encode
    // 128 B lines.
    if (lineBytes != 128) {
        return strfmt("{}LineBytes ({}) must be 128, the line size the "
                      "compressors encode",
                      level, lineBytes);
    }
    if (assoc == 0)
        return strfmt("{}Assoc must be nonzero", level);
    if (sizeBytes == 0 || sizeBytes % (lineBytes * assoc) != 0) {
        return strfmt("{}SizeBytes ({}) must be a nonzero multiple of "
                      "{}LineBytes * {}Assoc ({})",
                      level, sizeBytes, level, level, lineBytes * assoc);
    }
    if (subBlockBytes == 0 || lineBytes % subBlockBytes != 0) {
        return strfmt("{}SubBlockBytes ({}) must be nonzero and divide "
                      "{}LineBytes ({})",
                      level, subBlockBytes, level, lineBytes);
    }
    if (tagFactor == 0)
        return strfmt("{}TagFactor must be nonzero", level);
    if (mshrEntries == 0)
        return strfmt("{}MshrEntries must be nonzero", level);
    if (banks == 0)
        return strfmt("{}Banks must be nonzero", level);
    if (compress == LevelCompress::Static &&
        staticAlgo == CompressorId::None) {
        return strfmt("{} static compression needs an algorithm", level);
    }
    return std::nullopt;
}

bool
parseLevelCompressSpec(const std::string &spec, CacheLevelConfig &level)
{
    if (spec == "off") {
        level.compress = LevelCompress::Off;
        return true;
    }
    if (spec == "latte") {
        level.compress = LevelCompress::Latte;
        return true;
    }
    constexpr std::string_view kStatic = "static:";
    if (spec.rfind(kStatic, 0) == 0) {
        CompressorId algo;
        if (!algoFromSpec(spec.substr(kStatic.size()), algo))
            return false;
        level.compress = LevelCompress::Static;
        level.staticAlgo = algo;
        return true;
    }
    return false;
}

std::string
levelCompressSpec(const CacheLevelConfig &level)
{
    switch (level.compress) {
      case LevelCompress::Off:
        return "off";
      case LevelCompress::Latte:
        return "latte";
      case LevelCompress::Static:
        return strfmt("static:{}", algoSpecName(level.staticAlgo));
    }
    latte_panic("unknown LevelCompress {}",
                static_cast<int>(level.compress));
}

bool
parseLinkCompressSpec(const std::string &spec, CompressorId &algo)
{
    if (spec == "off") {
        algo = CompressorId::None;
        return true;
    }
    return algoFromSpec(spec, algo);
}

std::string
linkCompressSpec(CompressorId algo)
{
    return algo == CompressorId::None ? "off" : algoSpecName(algo);
}

std::optional<std::string>
GpuConfig::validationError() const
{
    if (numSms == 0)
        return "numSms must be nonzero";
    if (maxWarpsPerSm == 0)
        return "maxWarpsPerSm must be nonzero";
    if (maxBlocksPerSm == 0)
        return "maxBlocksPerSm must be nonzero";
    if (schedulersPerSm == 0 || schedulersPerSm > kMaxSchedulersPerSm) {
        return strfmt("schedulersPerSm must be 1..{} (got {})",
                      kMaxSchedulersPerSm, schedulersPerSm);
    }

    if (const auto error = l1.validationError("l1"))
        return error;
    if (const auto error = l2.validationError("l2"))
        return error;

    // The channels divide a transfer's bytes by their bandwidth.
    if (!(nocBytesPerCycle > 0) || std::isinf(nocBytesPerCycle)) {
        return strfmt("nocBytesPerCycle ({}) must be finite and positive",
                      nocBytesPerCycle);
    }
    if (!(dramBytesPerCycle > 0) || std::isinf(dramBytesPerCycle)) {
        return strfmt("dramBytesPerCycle ({}) must be finite and positive",
                      dramBytesPerCycle);
    }
    // DRAM adds dramMinLatency - l2MinLatency cycles to an L2 miss.
    if (dramMinLatency < l2.minLatency) {
        return strfmt("dramMinLatency ({}) must be at least l2MinLatency "
                      "({})",
                      dramMinLatency, l2.minLatency);
    }

    if (latte.epAccesses == 0)
        return "latte.epAccesses must be nonzero";
    if (latte.periodEps == 0 || latte.learningEps == 0 ||
        latte.learningEps > latte.periodEps) {
        return strfmt("latte learning/period EP counts are inconsistent "
                      "({} of {})",
                      latte.learningEps, latte.periodEps);
    }
    // The mode selector spaces each mode's sample sets numSets /
    // dedicatedSetsPerMode apart.
    if (latte.dedicatedSetsPerMode == 0)
        return "latte.dedicatedSetsPerMode must be nonzero";
    // Every SM builds an SC engine, whose code book samples into the VFT.
    if (latte.vftEntries == 0)
        return "latte.vftEntries must be nonzero";
    // Three candidate modes is the largest set any shipped policy uses;
    // the dedicated sample sets of all modes must leave follower sets.
    if (latte.dedicatedSetsPerMode * 3 >= l1NumSets()) {
        return strfmt("latte.dedicatedSetsPerMode ({}) leaves no "
                      "follower sets in a {}-set L1",
                      latte.dedicatedSetsPerMode, l1NumSets());
    }
    if (l2.compress == LevelCompress::Latte &&
        latte.dedicatedSetsPerMode * 3 >= l2NumSets()) {
        return strfmt("latte.dedicatedSetsPerMode ({}) leaves no "
                      "follower sets in a {}-set L2",
                      latte.dedicatedSetsPerMode, l2NumSets());
    }
    // SC's Huffman code book (VFT sampling, generation rebuilds) is
    // wired to the per-SM L1 policy; below the L1 only self-contained
    // algorithms are available.
    if (l2.compress != LevelCompress::Off &&
        l2.staticAlgo == CompressorId::Sc &&
        l2.compress == LevelCompress::Static) {
        return "l2 compression does not support SC (the code book "
               "rebuild machinery is L1-resident)";
    }
    if (linkCompress == CompressorId::Sc) {
        return "link compression does not support SC (the code book "
               "rebuild machinery is L1-resident)";
    }
    return std::nullopt;
}

void
GpuConfig::validate() const
{
    if (const auto error = validationError())
        latte_fatal("invalid GpuConfig: {}", *error);
}

} // namespace latte
