/** @file PriorStore implementation; contract in prior_store.hpp. */

#include "service/prior_store.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <utility>

#include "util/crc32.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"

#ifndef _WIN32
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/net_retry.hpp"
#endif

namespace qplacer {

namespace {

std::string
journalPath(const PriorStoreOptions &options)
{
    return options.stateDir + "/priors.journal";
}

std::string
snapshotPath(const PriorStoreOptions &options)
{
    return options.stateDir + "/priors.snapshot";
}

/** One journal/snapshot line for @p payload, CRC framed, newline'd. */
std::string
framedRecord(const JsonValue &payload)
{
    const std::string text = payload.serialize();
    JsonValue record = JsonValue::object();
    record.set("crc", JsonValue::number(
                          static_cast<std::int64_t>(crc32(text))));
    record.set("put", payload);
    return record.serialize() + "\n";
}

#ifndef _WIN32

/** fsync the directory itself so a rename within it is durable. */
void
syncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

#endif // !_WIN32

/**
 * Integer from an untrusted Number: false unless integral and within
 * [lo, hi]. JsonValue::asInt panics on a non-integral literal, which a
 * corrupt journal record must never be able to trigger.
 */
bool
checkedInt(const JsonValue &v, double lo, double hi, long long &out)
{
    if (!v.isNumber())
        return false;
    const double d = v.asDouble();
    if (!(d >= lo && d <= hi) || d != static_cast<double>(
                                          static_cast<long long>(d)))
        return false;
    out = static_cast<long long>(d);
    return true;
}

} // namespace

JsonValue
PriorStore::priorToJson(const std::string &id, const PriorLayout &prior)
{
    JsonValue payload = JsonValue::object();
    payload.set("id", JsonValue::string(id));

    JsonValue region = JsonValue::array();
    region.push(JsonValue::number(prior.region.lo.x));
    region.push(JsonValue::number(prior.region.lo.y));
    region.push(JsonValue::number(prior.region.hi.x));
    region.push(JsonValue::number(prior.region.hi.y));
    payload.set("region", std::move(region));

    payload.set("n", JsonValue::number(
                         static_cast<std::int64_t>(prior.numInstances)));

    JsonValue qubits = JsonValue::array();
    for (const auto &[qubit, site] : prior.qubitSites) {
        JsonValue row = JsonValue::array();
        row.push(JsonValue::number(static_cast<std::int64_t>(qubit)));
        row.push(JsonValue::number(site.pos.x));
        row.push(JsonValue::number(site.pos.y));
        row.push(JsonValue::number(site.freqHz));
        qubits.push(std::move(row));
    }
    payload.set("qubits", std::move(qubits));

    JsonValue segments = JsonValue::array();
    for (const auto &[key, site] : prior.segmentSites) {
        JsonValue row = JsonValue::array();
        row.push(JsonValue::number(
            static_cast<std::int64_t>(std::get<0>(key))));
        row.push(JsonValue::number(
            static_cast<std::int64_t>(std::get<1>(key))));
        row.push(JsonValue::number(
            static_cast<std::int64_t>(std::get<2>(key))));
        row.push(JsonValue::number(site.pos.x));
        row.push(JsonValue::number(site.pos.y));
        row.push(JsonValue::number(site.freqHz));
        segments.push(std::move(row));
    }
    payload.set("segments", std::move(segments));
    return payload;
}

bool
PriorStore::priorFromJson(const JsonValue &payload, std::string &id,
                          PriorLayout &prior, std::string *error)
{
    const auto failRecord = [error](const char *message) {
        if (error != nullptr)
            *error = message;
        return false;
    };
    if (!payload.isObject())
        return failRecord("record payload is not an object");

    const JsonValue *idv = payload.find("id");
    if (!idv || !idv->isString() || idv->asString().empty())
        return failRecord("record has no id");
    id = idv->asString();

    const JsonValue *region = payload.find("region");
    if (!region || !region->isArray() || region->items().size() != 4)
        return failRecord("record has no [x0,y0,x1,y1] region");
    for (const JsonValue &c : region->items())
        if (!c.isNumber())
            return failRecord("region coordinate is not a number");
    prior = PriorLayout{};
    prior.region = Rect(region->items()[0].asDouble(),
                        region->items()[1].asDouble(),
                        region->items()[2].asDouble(),
                        region->items()[3].asDouble());

    long long count = 0;
    const JsonValue *n = payload.find("n");
    if (!n || !checkedInt(*n, 0, 2147483647.0, count))
        return failRecord("record has no instance count");
    prior.numInstances = static_cast<int>(count);

    const JsonValue *qubits = payload.find("qubits");
    if (!qubits || !qubits->isArray())
        return failRecord("record has no qubits array");
    for (const JsonValue &row : qubits->items()) {
        long long qubit = 0;
        if (!row.isArray() || row.items().size() != 4 ||
            !checkedInt(row.items()[0], 0, 2147483647.0, qubit) ||
            !row.items()[1].isNumber() || !row.items()[2].isNumber() ||
            !row.items()[3].isNumber())
            return failRecord("qubit row is not [id,x,y,freq]");
        prior.qubitSites[static_cast<int>(qubit)] =
            PriorSite{Vec2(row.items()[1].asDouble(),
                           row.items()[2].asDouble()),
                      row.items()[3].asDouble()};
    }

    const JsonValue *segments = payload.find("segments");
    if (!segments || !segments->isArray())
        return failRecord("record has no segments array");
    for (const JsonValue &row : segments->items()) {
        long long a = 0;
        long long b = 0;
        long long ord = 0;
        if (!row.isArray() || row.items().size() != 6 ||
            !checkedInt(row.items()[0], 0, 2147483647.0, a) ||
            !checkedInt(row.items()[1], 0, 2147483647.0, b) ||
            !checkedInt(row.items()[2], 0, 2147483647.0, ord) ||
            !row.items()[3].isNumber() || !row.items()[4].isNumber() ||
            !row.items()[5].isNumber())
            return failRecord("segment row is not [a,b,ord,x,y,freq]");
        const PriorLayout::SegmentKey key{static_cast<int>(a),
                                          static_cast<int>(b),
                                          static_cast<int>(ord)};
        prior.segmentSites[key] =
            PriorSite{Vec2(row.items()[3].asDouble(),
                           row.items()[4].asDouble()),
                      row.items()[5].asDouble()};
    }
    return true;
}

PriorStore::PriorStore(PriorStoreOptions options)
    : options_(std::move(options))
{
    if (options_.capacity < 1)
        options_.capacity = 1;
    if (options_.snapshotEvery < 1)
        options_.snapshotEvery = 1;
    if (options_.stateDir.empty())
        return;
#ifndef _WIN32
    std::error_code ec;
    std::filesystem::create_directories(options_.stateDir, ec);
    if (ec) {
        warn(str("prior store: cannot create state dir '",
                 options_.stateDir, "': ", ec.message(),
                 "; persistence disabled"));
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        loadLocked();
    }
    journalFd_ = ::open(journalPath(options_).c_str(),
                        O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (journalFd_ < 0)
        warn(str("prior store: cannot open journal in '", options_.stateDir,
                 "'; persistence disabled"));
#else
    warn("prior store: --state-dir persistence is POSIX-only; "
         "running memory-only");
#endif
}

PriorStore::~PriorStore()
{
#ifndef _WIN32
    if (journalFd_ >= 0)
        ::close(journalFd_);
#endif
}

void
PriorStore::put(const std::string &id,
                std::shared_ptr<const PriorLayout> prior)
{
    std::lock_guard<std::mutex> lock(mu_);
    // Durable before visible: once the caller proceeds (and emits the
    // job's result), the prior must survive a crash.
    const bool appended = appendJournalLocked(id, *prior);
    putLocked(id, std::move(prior));
    // Compact only after the record is in memory: the snapshot replaces
    // the journal wholesale, so it must include what it truncates.
    if (appended && ++appendsSinceSnapshot_ >= options_.snapshotEvery)
        snapshotLocked();
}

std::shared_ptr<const PriorLayout>
PriorStore::get(const std::string &id)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = priors_.find(id);
    if (it == priors_.end())
        return nullptr;
    // Promote on use (LRU): a hot incremental base must not be evicted
    // by unrelated churn while still actively referenced.
    promoteLocked(id);
    return it->second;
}

int
PriorStore::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(priors_.size());
}

std::vector<std::string>
PriorStore::ids() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return {order_.begin(), order_.end()};
}

void
PriorStore::putLocked(const std::string &id,
                      std::shared_ptr<const PriorLayout> prior)
{
    if (priors_.find(id) == priors_.end())
        order_.push_back(id);
    else
        promoteLocked(id); // Re-capture counts as a use.
    priors_[id] = std::move(prior);
    while (static_cast<int>(order_.size()) > options_.capacity) {
        priors_.erase(order_.front());
        order_.pop_front();
    }
}

void
PriorStore::promoteLocked(const std::string &id)
{
    const auto it = std::find(order_.begin(), order_.end(), id);
    if (it != order_.end()) {
        order_.erase(it);
        order_.push_back(id);
    }
}

bool
PriorStore::appendJournalLocked(const std::string &id,
                                const PriorLayout &prior)
{
#ifndef _WIN32
    if (journalFd_ < 0)
        return false;
    const std::string line = framedRecord(priorToJson(id, prior));
    bool ok = writeAll(journalFd_, line.data(), line.size()) &&
              ::fsync(journalFd_) == 0;
    // Site semantics: the crash action fires *after* the record is
    // durable (crash-after-flush), modelling kill -9 right past the
    // append; the error action models a failing disk.
    if (QPLACER_FAILPOINT("prior_store.append"))
        ok = false;
    if (!ok) {
        if (!persistBroken_)
            warn(str("prior store: journal append failed for '", id,
                     "'; serving continues from memory"));
        persistBroken_ = true;
        return false;
    }
    persistBroken_ = false;
    return true;
#else
    (void)id;
    (void)prior;
    return false;
#endif
}

void
PriorStore::snapshotLocked()
{
#ifndef _WIN32
    appendsSinceSnapshot_ = 0;
    const std::string path = snapshotPath(options_);
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        warn("prior store: cannot write snapshot temp file; "
             "keeping journal");
        return;
    }
    bool ok = true;
    for (const std::string &id : order_) {
        const std::string line =
            framedRecord(priorToJson(id, *priors_.at(id)));
        ok = ok && writeAll(fd, line.data(), line.size());
    }
    ok = ok && ::fsync(fd) == 0;
    ::close(fd);
    // Site semantics: temp file fully written and synced, rename not
    // yet performed -- a crash here must recover from the old
    // snapshot + the still-intact journal.
    if (QPLACER_FAILPOINT("prior_store.snapshot"))
        ok = false;
    if (!ok) {
        ::unlink(tmp.c_str());
        warn("prior store: snapshot write failed; keeping journal");
        return;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        warn("prior store: snapshot rename failed; keeping journal");
        return;
    }
    syncDir(options_.stateDir);
    // The snapshot now owns every record; start the journal afresh.
    if (journalFd_ >= 0 &&
        ::ftruncate(journalFd_, 0) == 0)
        ::fsync(journalFd_);
#endif
}

long
PriorStore::replayFileLocked(const std::string &path, bool truncate_torn)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();

    long good = 0; ///< Bytes of the valid record prefix.
    std::size_t pos = 0;
    bool torn = false;
    while (pos < content.size()) {
        const std::size_t eol = content.find('\n', pos);
        if (eol == std::string::npos) {
            torn = true; // Partial line: crash mid-append.
            break;
        }
        const std::string line = content.substr(pos, eol - pos);
        JsonValue record;
        std::string error;
        std::string id;
        auto prior = std::make_shared<PriorLayout>();
        const JsonValue *crc = nullptr;
        const JsonValue *put = nullptr;
        long long crc_value = 0;
        bool ok = parseJson(line, record, &error) && record.isObject() &&
                  (crc = record.find("crc")) != nullptr &&
                  checkedInt(*crc, 0, 4294967295.0, crc_value) &&
                  (put = record.find("put")) != nullptr;
        // The CRC covers the serialized payload; JsonValue preserves
        // number literals, so re-serializing the parsed member
        // reproduces the written bytes exactly.
        ok = ok && crc32(put->serialize()) ==
                       static_cast<std::uint32_t>(crc_value);
        ok = ok && priorFromJson(*put, id, *prior, &error);
        if (!ok) {
            torn = true;
            break;
        }
        putLocked(id, std::move(prior));
        pos = eol + 1;
        good = static_cast<long>(pos);
    }

#ifndef _WIN32
    if (torn && truncate_torn) {
        warn(str("prior store: torn tail in ", path, " at byte ", good,
                 " (of ", content.size(), "); truncating"));
        if (::truncate(path.c_str(), good) != 0)
            warn(str("prior store: truncate(", path, ") failed"));
    }
#else
    (void)truncate_torn;
#endif
    return good;
}

void
PriorStore::loadLocked()
{
    if (QPLACER_FAILPOINT("prior_store.load")) {
        warn("prior store: load failed (injected); starting empty");
        return;
    }
    // Snapshot first (the compacted base), then the journal on top.
    // The snapshot is written via atomic rename so it should never be
    // torn; a corrupt record still just stops the replay early.
    replayFileLocked(snapshotPath(options_), false);
    replayFileLocked(journalPath(options_), true);
    loaded_ = static_cast<int>(priors_.size());
    if (loaded_ > 0)
        inform(str("prior store: recovered ", loaded_, " prior layout",
                   loaded_ == 1 ? "" : "s", " from ", options_.stateDir));
}

} // namespace qplacer
