// In-memory span recorder for the benchmark's traced layer replay.
//
// A span is one call into a layer's public function: name (the layer, e.g.
// "lang.parse"), a stable id naming the unit of work ("app/file/entry"),
// start and end on the steady clock, and the index of the enclosing span.
// Spans stay in memory while the replay runs and are written once, at exit,
// as Chrome trace-event JSON (viewable in Perfetto or chrome://tracing).
// A disabled tracer records nothing and reads no clock, so the same replay
// code gives the untraced wall time that trace.overhead compares against.
#ifndef CLAIRBENCH_TRACE_H_
#define CLAIRBENCH_TRACE_H_

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace clairbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string id;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  // Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->Close(index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  // Opens a span nested in the innermost open one. Single-threaded: the
  // replay calls every layer from one thread.
  [[nodiscard]] Scope Open(std::string name, std::string id) {
    if (!enabled_) {
      return Scope(nullptr, -1);
    }
    Span span;
    span.name = std::move(name);
    span.id = std::move(id);
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_s = Now();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return Scope(this, open_.back());
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per span name: each span's duration minus the part of it its
  // child spans cover.
  std::map<std::string, double> SelfSeconds() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_s[static_cast<size_t>(span.parent)] += span.end_s - span.start_s;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] += spans_[i].end_s - spans_[i].start_s - child_s[i];
    }
    return self;
  }

  bool WriteChromeJson(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    std::fprintf(out, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(out,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": \"%s\", "
                   "\"parent\": %d}}%s\n",
                   span.name.c_str(), span.start_s * 1e6,
                   (span.end_s - span.start_s) * 1e6, span.id.c_str(),
                   span.parent, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  void Close(int index) {
    spans_[static_cast<size_t>(index)].end_s = Now();
    open_.pop_back();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace clairbench

#endif  // CLAIRBENCH_TRACE_H_
