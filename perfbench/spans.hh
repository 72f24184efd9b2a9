/**
 * @file
 * In-memory span log of a traced benchmark run. The benchmark opens a
 * span around each call it makes into a library layer; spans nest by the
 * order they are opened (the benchmark is single-threaded), so each span's
 * parent is the span open when it began. Self time is a span's duration
 * minus its children's. The log is written out once, when the run ends.
 * A disabled log records nothing, so the same code can run untraced.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <string>
#include <string_view>
#include <vector>

#include "common.hh"

namespace perfbench
{

class SpanLog
{
  public:
    struct Span
    {
        std::string name;    ///< layer.operation, e.g. "hsd.profile"
        std::string subject; ///< roster row (tenant) label, or empty
        double start = 0.0;  ///< seconds since the log was created
        double end = 0.0;
        int parent = -1;     ///< index of the enclosing span, -1 = root
    };

    /** RAII span: opened on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name, std::string subject = {});
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Seconds since the span opened. */
        double elapsed() const;

      private:
        SpanLog &log_;
        int index_ = -1; ///< -1 when the log is disabled
        double start_;
    };

    explicit SpanLog(bool enabled = true)
        : origin_(Clock::now()), enabled_(enabled)
    {}

    /** Summed self time (duration minus children) of spans @p name. */
    double selfSeconds(std::string_view name) const;

    /** Durations of spans @p name, in the order they were opened. */
    std::vector<double> durations(std::string_view name) const;

    /** Write every span as a JSON array; @return false on I/O error. */
    bool write(const std::string &path) const;

  private:
    double now() const { return secondsSince(origin_); }

    Clock::time_point origin_;
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
