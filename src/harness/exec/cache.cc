#include "harness/exec/cache.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "harness/exec/wire.hh"
#include "sim/logging.hh"

namespace gpump {
namespace harness {
namespace exec {

namespace {

/** First line of every entry file; bump when the entry layout
 *  changes.  A payload of another wire version already reads as a
 *  miss (decodeResult rejects it), so a wire bump alone needs none. */
constexpr const char *cacheMagic = "gpump-exec-cache v1";

} // namespace

std::string
requestKey(const sim::Config &base, const RunRequest &request)
{
    sim::Config cfg = base;
    cfg.merge(request.overrides);
    std::string key = "cfg{" + cfg.fingerprint() + "};";
    if (request.serving)
        key += request.serving->fingerprint();
    else
        key += request.plan.fingerprint();
    key += ";scheme{" + request.scheme.policy + "/" +
        request.scheme.mechanism + "/" + request.scheme.transferPolicy +
        "}";
    key += ";replays=" + std::to_string(request.minReplays);
    key += ";limit=" + std::to_string(request.limit);
    return key;
}

std::string
hashKey(const std::string &key)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : key) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return sim::strformat("%016llx",
                          static_cast<unsigned long long>(h));
}

ResultCache::ResultCache(const std::string &dir)
    : dir_(dir)
{
    GPUMP_ASSERT(!dir.empty(), "ResultCache needs a directory");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec || !std::filesystem::is_directory(dir_)) {
        sim::fatal("cache-dir '%s' cannot be created: %s", dir_.c_str(),
                   ec.message().c_str());
    }
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    return dir_ + "/" + hashKey(key) + ".entry";
}

bool
ResultCache::lookup(const std::string &key, RunResult &out)
{
    const std::string path = entryPath(key);
    std::ifstream in(path);
    if (!in) {
        ++misses_;
        return false;
    }
    std::string magic, stored_key, payload, terminator;
    bool ok = static_cast<bool>(std::getline(in, magic)) &&
        static_cast<bool>(std::getline(in, stored_key)) &&
        static_cast<bool>(std::getline(in, payload)) &&
        static_cast<bool>(std::getline(in, terminator));
    ok = ok && magic == cacheMagic && terminator == "ok";
    // A colliding hash stores a different key under our file name;
    // that entry is valid for *its* request, so it is a miss here but
    // must not be deleted.
    bool collision = ok && stored_key != key;
    ok = ok && !collision && tryDecodeResult(payload, out);
    in.close();
    if (!ok && !collision) {
        // Torn, truncated or corrupt: drop the entry so the slot is
        // rewritten cleanly when the request is recomputed.
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
    if (!ok) {
        ++misses_;
        return false;
    }
    ++hits_;
    return true;
}

void
ResultCache::store(const std::string &key, const RunResult &result)
{
    const std::string path = entryPath(key);
    // Same-directory temp name (rename() must not cross filesystems),
    // unique per process so concurrent sweeps sharing a cache-dir
    // never interleave writes into one temp file.
    const std::string tmp = path + ".tmp." +
        std::to_string(static_cast<long long>(::getpid()));
    {
        std::ofstream os(tmp, std::ios::out | std::ios::trunc);
        if (!os)
            sim::fatal("cache-dir '%s': cannot write '%s'",
                       dir_.c_str(), tmp.c_str());
        os << cacheMagic << "\n"
           << key << "\n"
           << encodeResult(result) << "\n"
           << "ok\n";
        os.flush();
        if (!os)
            sim::fatal("cache-dir '%s': write failed (disk full?)",
                       dir_.c_str());
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        sim::fatal("cache-dir '%s': rename to '%s' failed: %s",
                   dir_.c_str(), path.c_str(), ec.message().c_str());
    }
    ++stores_;
}

std::vector<std::string>
ResultCache::staleEntries(const std::set<std::string> &liveKeys) const
{
    std::vector<std::string> stale;
    std::error_code ec;
    for (const auto &de :
         std::filesystem::directory_iterator(dir_, ec)) {
        const std::string name = de.path().filename().string();
        if (name.size() < 6 ||
            name.compare(name.size() - 6, 6, ".entry") != 0)
            continue; // temp files and foreign litter
        std::ifstream in(de.path());
        std::string magic, stored_key;
        if (std::getline(in, magic) &&
            std::getline(in, stored_key) && magic == cacheMagic &&
            liveKeys.count(stored_key) != 0)
            continue;
        stale.push_back(de.path().string());
    }
    std::sort(stale.begin(), stale.end());
    return stale;
}

} // namespace exec
} // namespace harness
} // namespace gpump
