#include "spans.hh"

#include <cstdio>

namespace perfbench
{

SpanLog::Scope::Scope(SpanLog &log, std::string name, std::string subject)
    : log_(log), start_(log.now())
{
    if (!log.enabled_)
        return;
    index_ = static_cast<int>(log.spans_.size());
    Span s;
    s.name = std::move(name);
    s.subject = std::move(subject);
    s.parent = log.open_.empty() ? -1 : log.open_.back();
    s.start = start_;
    log.spans_.push_back(std::move(s));
    log.open_.push_back(index_);
}

SpanLog::Scope::~Scope()
{
    if (index_ < 0)
        return;
    log_.spans_[index_].end = log_.now();
    log_.open_.pop_back();
}

double
SpanLog::Scope::elapsed() const
{
    return log_.now() - start_;
}

double
SpanLog::selfSeconds(std::string_view name) const
{
    std::vector<double> childTime(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            childTime[s.parent] += s.end - s.start;
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name)
            sum += spans_[i].end - spans_[i].start - childTime[i];
    }
    return sum;
}

std::vector<double>
SpanLog::durations(std::string_view name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(s.end - s.start);
    }
    return out;
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Names and subjects are roster labels and fixed layer names:
        // no characters that need JSON escaping.
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"subject\": \"%s\", "
                     "\"start\": %.9f, \"end\": %.9f, \"parent\": %d}%s\n",
                     i, s.name.c_str(), s.subject.c_str(), s.start, s.end,
                     s.parent, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
