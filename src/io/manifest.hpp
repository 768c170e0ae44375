/**
 * @file
 * Durable job manifest for the crash-consistent out-of-core sort.
 *
 * The manifest is the journal of a checkpointed sort job: a small
 * binary file in the job directory recording the sort parameters (so
 * a resume can prove it is resuming the *same* request), the phase-1
 * chunks already spilled, and the merge passes already completed —
 * each run carrying its byte extent and a CRC of its data so torn or
 * stale spill files are detected before a single record is trusted.
 *
 * Commit protocol (saveManifest): write the whole image to a temp
 * name, fdatasync it, rename() over the live name, fsync the parent
 * directory.  rename() is atomic on POSIX filesystems, so a reader
 * only ever observes the previous manifest or the new one — never a
 * torn mix.  The caller must flush run *data* (RunStore::flush) before
 * committing, which gives the invariant resume relies on: any run a
 * committed manifest records is durable on the device.
 *
 * Load is deliberately paranoid and deliberately specific: a missing
 * file, a torn tail, a foreign magic, a future version, a body CRC
 * mismatch and a structurally malformed body are distinct statuses
 * with distinct one-line messages, because "fall back loudly" needs
 * to say *why*.
 */

#ifndef BONSAI_IO_MANIFEST_HPP
#define BONSAI_IO_MANIFEST_HPP

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "io/byte_io.hpp"

namespace bonsai::io
{

/** CRC-32 (IEEE 802.3, reflected), the checksum guarding both the
 *  manifest body and each spilled run's data. */
inline std::uint32_t
crc32(const void *data, std::size_t len,
      std::uint32_t seed = 0xffffffffu)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = seed;
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i)
        crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
    return crc;
}

/** Finalize a crc32 chain (xor-out).  Feed blocks by passing the
 *  running value as @p seed, then invert once at the end. */
inline std::uint32_t
crc32Finish(std::uint32_t crc)
{
    return crc ^ 0xffffffffu;
}

/** One-shot convenience: CRC of a single contiguous buffer. */
inline std::uint32_t
crc32Of(const void *data, std::size_t len)
{
    return crc32Finish(crc32(data, len));
}

/** Fixed names inside a job directory.  Fixed (not generated) names
 *  are what make resume and orphan cleanup possible without directory
 *  scans. */
inline constexpr const char *kManifestFileName = "job.manifest";
inline constexpr const char *kManifestTempFileName = "job.manifest.tmp";
inline constexpr const char *kFrontStoreFileName = "runs-front.spill";
inline constexpr const char *kBackStoreFileName = "runs-back.spill";

/** The request echo: a resume is only valid against a byte-identical
 *  parameter set, because chunk geometry, pass structure and run
 *  extents are all functions of these. */
struct ManifestParams {
    std::uint64_t recordBytes = 0;
    std::uint64_t recordsIn = 0;
    std::uint64_t chunkRecords = 0;
    std::uint64_t batchRecords = 0;
    std::uint32_t phase1Ell = 0;
    std::uint32_t phase2Ell = 0;
    std::uint64_t bufferBudgetBytes = 0;

    bool
    operator==(const ManifestParams &) const = default;
};

/** One durable run: its extent in the current store plus a CRC of its
 *  bytes, verified on resume before the run is trusted. */
struct ManifestRun {
    std::uint64_t offset = 0;
    std::uint64_t length = 0; ///< records
    std::uint32_t crc = 0;    ///< crc32Of the run's raw bytes
};

/** In-memory image of the job journal. */
struct JobManifest {
    ManifestParams params;
    std::uint64_t chunksDone = 0;  ///< phase-1 chunks spilled
    bool phase1Complete = false;   ///< all input consumed and spilled
    std::uint8_t currentStore = 0; ///< 0 = front, 1 = back holds runs
    std::uint32_t passesDone = 0;  ///< non-final merge passes completed
    std::vector<ManifestRun> runs; ///< live runs in the current store
};

/** Why a manifest load did not produce a usable manifest. */
enum class ManifestStatus {
    Ok,
    NotFound,     ///< no manifest file in the job directory
    TornTail,     ///< file shorter than its header claims
    BadMagic,     ///< not a bonsai job manifest at all
    WrongVersion, ///< written by a different manifest format
    CrcMismatch,  ///< body bytes do not match the recorded checksum
    Malformed,    ///< checksummed body is structurally inconsistent
};

struct ManifestLoadResult {
    ManifestStatus status = ManifestStatus::NotFound;
    std::string error;    ///< one-line reason when status != Ok
    JobManifest manifest; ///< valid only when status == Ok
};

/** Version 3 jobs presort stably, so their runs hold equal keys in
 *  input order.  Older jobs hold another order of equal keys (version
 *  2 runs went through the unstable presort network, version 1 passes
 *  merged strided groups), so they fail the version check and the
 *  sort starts fresh. */
inline constexpr std::uint32_t kManifestVersion = 3;
inline constexpr char kManifestMagic[8] = {'B', 'O', 'N', 'S',
                                           'A', 'I', 'J', 'M'};

namespace detail
{

inline void
putBytes(std::vector<unsigned char> &out, const void *src,
         std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(src);
    out.insert(out.end(), p, p + len);
}

inline void
putU32(std::vector<unsigned char> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(
            static_cast<unsigned char>((v >> (8 * i)) & 0xffu));
}

inline void
putU64(std::vector<unsigned char> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(
            static_cast<unsigned char>((v >> (8 * i)) & 0xffu));
}

/** Bounds-checked little-endian reader over a byte span. */
class ByteReader
{
  public:
    ByteReader(const unsigned char *data, std::size_t len)
        : data_(data), len_(len)
    {
    }

    bool
    getU32(std::uint32_t &v)
    {
        if (len_ - pos_ < 4)
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
        pos_ += 4;
        return true;
    }

    bool
    getU64(std::uint64_t &v)
    {
        if (len_ - pos_ < 8)
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
        pos_ += 8;
        return true;
    }

    bool
    getU8(std::uint8_t &v)
    {
        if (len_ - pos_ < 1)
            return false;
        v = data_[pos_++];
        return true;
    }

    std::size_t remaining() const { return len_ - pos_; }

  private:
    const unsigned char *data_;
    std::size_t len_;
    std::size_t pos_ = 0;
};

inline std::vector<unsigned char>
encodeBody(const JobManifest &m)
{
    std::vector<unsigned char> body;
    body.reserve(96 + m.runs.size() * 20);
    putU64(body, m.params.recordBytes);
    putU64(body, m.params.recordsIn);
    putU64(body, m.params.chunkRecords);
    putU64(body, m.params.batchRecords);
    putU32(body, m.params.phase1Ell);
    putU32(body, m.params.phase2Ell);
    putU64(body, m.params.bufferBudgetBytes);
    putU64(body, m.chunksDone);
    body.push_back(m.phase1Complete ? 1 : 0);
    body.push_back(m.currentStore);
    putU32(body, m.passesDone);
    putU64(body, m.runs.size());
    for (const ManifestRun &r : m.runs) {
        putU64(body, r.offset);
        putU64(body, r.length);
        putU32(body, r.crc);
    }
    return body;
}

inline bool
decodeBody(const unsigned char *data, std::size_t len, JobManifest &m)
{
    ByteReader in(data, len);
    std::uint8_t p1done = 0;
    std::uint64_t runCount = 0;
    if (!in.getU64(m.params.recordBytes) ||
        !in.getU64(m.params.recordsIn) ||
        !in.getU64(m.params.chunkRecords) ||
        !in.getU64(m.params.batchRecords) ||
        !in.getU32(m.params.phase1Ell) ||
        !in.getU32(m.params.phase2Ell) ||
        !in.getU64(m.params.bufferBudgetBytes) ||
        !in.getU64(m.chunksDone) || !in.getU8(p1done) ||
        !in.getU8(m.currentStore) || !in.getU32(m.passesDone) ||
        !in.getU64(runCount))
        return false;
    if (p1done > 1 || m.currentStore > 1)
        return false;
    if (runCount != in.remaining() / 20 || in.remaining() % 20 != 0)
        return false;
    m.phase1Complete = p1done != 0;
    m.runs.resize(static_cast<std::size_t>(runCount));
    for (ManifestRun &r : m.runs) {
        if (!in.getU64(r.offset) || !in.getU64(r.length) ||
            !in.getU32(r.crc))
            return false;
    }
    return in.remaining() == 0;
}

} // namespace detail

/** Path of the live manifest inside @p dir. */
inline std::string
manifestPath(const std::string &dir)
{
    return dir + "/" + kManifestFileName;
}

/**
 * Durably commit @p m to the job directory: encode, write to the
 * temp name, fdatasync, rename over the live name, fsync the
 * directory.  @p policy (optional) is installed on the temp file so
 * crash tests can kill the process inside the commit window.
 */
inline void
saveManifest(const std::string &dir, const JobManifest &m,
             const std::shared_ptr<FaultPolicy> &policy = nullptr,
             const RetryPolicy &retry = {})
{
    const std::vector<unsigned char> body = detail::encodeBody(m);

    std::vector<unsigned char> image;
    image.reserve(24 + body.size());
    detail::putBytes(image, kManifestMagic, sizeof(kManifestMagic));
    detail::putU32(image, kManifestVersion);
    detail::putU64(image, body.size());
    detail::putU32(image, crc32Of(body.data(), body.size()));
    detail::putBytes(image, body.data(), body.size());

    const std::string tmp = dir + "/" + kManifestTempFileName;
    {
        ByteFile file = ByteFile::create(tmp);
        file.setFaultPolicy(policy);
        file.setRetryPolicy(retry);
        file.writeAt(0, image.data(), image.size(), "manifest commit");
        file.sync("manifest commit");
    }
    renameReplace(tmp, manifestPath(dir));
}

/**
 * Read and validate the manifest in @p dir.  Never throws for a bad
 * manifest — every defect maps to a distinct status so the caller can
 * decide between loud fallback and hard failure.  (I/O errors while
 * reading an *existing* file still throw: that is a device problem,
 * not a consistency problem.)
 */
inline ManifestLoadResult
loadManifest(const std::string &dir)
{
    ManifestLoadResult out;
    const std::string path = manifestPath(dir);

    if (!fileExists(path)) {
        out.status = ManifestStatus::NotFound;
        out.error = "no job manifest at " + path;
        return out;
    }
    ByteFile file = ByteFile::openRead(path);

    constexpr std::uint64_t kHeaderBytes = 24;
    const std::uint64_t size = file.sizeBytes();
    if (size < kHeaderBytes) {
        out.status = ManifestStatus::TornTail;
        out.error = "job manifest " + path + " is torn: " +
                    std::to_string(size) + " bytes, header needs " +
                    std::to_string(kHeaderBytes);
        return out;
    }

    std::vector<unsigned char> header(kHeaderBytes);
    file.readAt(0, header.data(), header.size(), "manifest header");
    if (std::memcmp(header.data(), kManifestMagic,
                    sizeof(kManifestMagic)) != 0) {
        out.status = ManifestStatus::BadMagic;
        out.error = "file " + path + " is not a bonsai job manifest "
                    "(magic mismatch)";
        return out;
    }
    detail::ByteReader rd(header.data() + sizeof(kManifestMagic),
                          header.size() - sizeof(kManifestMagic));
    std::uint32_t version = 0;
    std::uint64_t bodyBytes = 0;
    std::uint32_t bodyCrc = 0;
    rd.getU32(version);
    rd.getU64(bodyBytes);
    rd.getU32(bodyCrc);
    if (version != kManifestVersion) {
        out.status = ManifestStatus::WrongVersion;
        out.error = "job manifest " + path + " has version " +
                    std::to_string(version) + ", this build reads " +
                    std::to_string(kManifestVersion);
        return out;
    }
    if (size < kHeaderBytes + bodyBytes) {
        out.status = ManifestStatus::TornTail;
        out.error = "job manifest " + path + " is torn: body claims " +
                    std::to_string(bodyBytes) + " bytes, file has " +
                    std::to_string(size - kHeaderBytes);
        return out;
    }

    std::vector<unsigned char> body(
        static_cast<std::size_t>(bodyBytes));
    file.readAt(kHeaderBytes, body.data(), body.size(),
                "manifest body");
    if (crc32Of(body.data(), body.size()) != bodyCrc) {
        out.status = ManifestStatus::CrcMismatch;
        out.error = "job manifest " + path +
                    " failed its body checksum (corrupt or torn write)";
        return out;
    }
    if (!detail::decodeBody(body.data(), body.size(), out.manifest)) {
        out.status = ManifestStatus::Malformed;
        out.error = "job manifest " + path + " has a checksummed but "
                    "structurally inconsistent body";
        return out;
    }
    out.status = ManifestStatus::Ok;
    return out;
}

/**
 * Explain how @p got differs from @p expected, or "" when they match.
 * The message names the first differing field: resume refusals must
 * say exactly what changed between the checkpoint and the request.
 */
inline std::string
describeParamMismatch(const ManifestParams &expected,
                      const ManifestParams &got)
{
    const auto diff = [](const char *name, std::uint64_t want,
                         std::uint64_t have) {
        return std::string("checkpoint parameter mismatch: ") + name +
               " was " + std::to_string(have) + ", request has " +
               std::to_string(want);
    };
    if (got.recordBytes != expected.recordBytes)
        return diff("record width", expected.recordBytes,
                    got.recordBytes);
    if (got.recordsIn != expected.recordsIn)
        return diff("input records", expected.recordsIn,
                    got.recordsIn);
    if (got.chunkRecords != expected.chunkRecords)
        return diff("chunk records", expected.chunkRecords,
                    got.chunkRecords);
    if (got.batchRecords != expected.batchRecords)
        return diff("batch records", expected.batchRecords,
                    got.batchRecords);
    if (got.phase1Ell != expected.phase1Ell)
        return diff("phase-1 fan-in", expected.phase1Ell,
                    got.phase1Ell);
    if (got.phase2Ell != expected.phase2Ell)
        return diff("phase-2 fan-in", expected.phase2Ell,
                    got.phase2Ell);
    if (got.bufferBudgetBytes != expected.bufferBudgetBytes)
        return diff("buffer budget bytes", expected.bufferBudgetBytes,
                    got.bufferBudgetBytes);
    return "";
}

/**
 * Delete the job's durable artifacts (manifest, temp manifest, both
 * spill stores).  Used on fresh start — stale files from a previous
 * or aborted attempt must not survive into a new job — and on
 * successful completion, when the checkpoint has served its purpose.
 * Fixed file names mean no directory scan is needed.
 */
inline void
removeJobArtifacts(const std::string &dir)
{
    removeFileIfExists(dir + "/" + kManifestFileName);
    removeFileIfExists(dir + "/" + kManifestTempFileName);
    removeFileIfExists(dir + "/" + kFrontStoreFileName);
    removeFileIfExists(dir + "/" + kBackStoreFileName);
    syncDirectory(dir);
}

} // namespace bonsai::io

#endif // BONSAI_IO_MANIFEST_HPP
