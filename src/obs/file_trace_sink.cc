#include "obs/file_trace_sink.h"

#include "common/json_writer.h"
#include "common/logging.h"
#include "obs/chrome_trace.h"

namespace g10 {

FileTraceSink::FileTraceSink(const std::string& path)
    : path_(path), out_(path)
{
    if (!out_)
        fatal("cannot open trace output '%s'", path.c_str());
    out_ << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
}

FileTraceSink::~FileTraceSink()
{
    if (!finished_)
        finish();
}

void
FileTraceSink::separator()
{
    if (!first_)
        out_ << ",";
    out_ << "\n";
    first_ = false;
}

void
FileTraceSink::setProcessName(int pid, const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    names_[pid] = name;
    if (finished_ || !announced_[pid])
        return;
    // Already announced with the default: re-emit, last record wins.
    separator();
    JsonWriter w(out_, 0);
    writeChromeMetaJson(w, "process_name", pid, 0, name);
}

int
FileTraceSink::lanesFor(const TraceEvent& ev)
{
    if (!announced_[ev.pid]) {
        announced_[ev.pid] = true;
        auto it = names_.find(ev.pid);
        const std::string name = it != names_.end()
                                     ? it->second
                                     : "job " + std::to_string(ev.pid);
        separator();
        JsonWriter w(out_, 0);
        writeChromeMetaJson(w, "process_name", ev.pid, 0, name);
    }
    const std::pair<int, TraceTrack> lane{ev.pid, ev.track};
    auto it = tids_.find(lane);
    if (it == tids_.end()) {
        it = tids_.emplace(lane, nextTid_++).first;
        separator();
        JsonWriter w(out_, 0);
        writeChromeMetaJson(w, "thread_name", ev.pid, it->second,
                            traceName(ev.track));
    }
    return it->second;
}

void
FileTraceSink::onEvent(TraceEvent ev)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_) {
        ++dropped_;
        return;
    }
    const int tid = lanesFor(ev);
    separator();
    JsonWriter w(out_, 0);
    writeChromeEventJson(w, ev, tid);
    ++events_;
}

void
FileTraceSink::finish()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_) {
        // Late events could only have arrived after the first
        // finish(); surface them once (the destructor re-enters here).
        if (dropped_ > 0 && !warnedDrops_) {
            warnedDrops_ = true;
            warn("trace '%s' is truncated: %llu events arrived after "
                 "finish() and were dropped",
                 path_.c_str(),
                 static_cast<unsigned long long>(dropped_));
        }
        return;
    }
    finished_ = true;
    out_ << "\n]}\n";
    out_.close();
    if (!out_)
        fatal("error writing trace output '%s'", path_.c_str());
}

}  // namespace g10
