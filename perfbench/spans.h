// In-memory host-time spans for the traced run. The benchmark records a
// span only around calls it makes into public functions of the system; the
// log is written out once, at exit. A span's layer is its name up to the
// first '.', so "proto.parse" belongs to "proto".
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace espk::perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  // Host steady-clock ns.
  int64_t end_ns = 0;
  int parent = -1;       // Index into the log; -1 for a root.
};

class SpanLog {
 public:
  static int64_t NowNs();

  // Opens a span whose parent is the innermost open span.
  int Begin(std::string name);
  void End(int id);
  // Records a finished span under the innermost open span.
  int Add(std::string name, int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  // Summed self time (see SelfTimes below) per layer.
  std::map<std::string, int64_t> LayerSelfTimes() const;

  // Writes {"spans":[{"name","start_ns","end_ns","parent"}...]}.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

std::string LayerOf(const std::string& span_name);

// Per span: its duration minus the union of its children's intervals
// (children may overlap: the zones of one epoch run in parallel).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// RAII span; a null log makes it a no-op so untraced runs pay nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace espk::perfbench

#endif  // PERFBENCH_SPANS_H_
