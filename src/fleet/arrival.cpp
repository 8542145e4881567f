#include "fleet/arrival.hpp"

#include <charconv>
#include <fstream>
#include <stdexcept>
#include <string_view>

namespace uvmsim {

std::vector<Cycle> ArrivalStream::load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::vector<Cycle> gaps;
  std::string line;
  for (u64 line_no = 1; std::getline(in, line); ++line_no) {
    std::string_view text(line);
    text = text.substr(0, text.find('#'));
    const std::size_t first = text.find_first_not_of(" \t\r");
    if (first == std::string_view::npos) continue;  // blank or comment
    text = text.substr(first, text.find_last_not_of(" \t\r") + 1 - first);
    // from_chars takes no sign, space or prefix for an unsigned type, so
    // "-5", "+5", "12abc" and "xyz" fail here instead of parsing loosely.
    u64 gap = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), gap);
    if (ec != std::errc{} || end != text.data() + text.size())
      throw std::runtime_error("arrival trace " + path + ": line " +
                               std::to_string(line_no) +
                               ": expected one unsigned decimal gap, got '" +
                               std::string(text) + "'");
    gaps.push_back(gap);
  }
  return gaps;
}

}  // namespace uvmsim
