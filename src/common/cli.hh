/**
 * @file
 * Command-line helpers shared by the tools and benches: pulling a
 * `--flag value` pair or a bare switch out of an argument list, and the
 * one strict parser for numeric flag values. Bad input throws
 * std::invalid_argument, so a tool's main() turns every malformed flag
 * into one diagnostic and exit status 1 instead of silently running with
 * a truncated value.
 */

#ifndef OVERLAYSIM_COMMON_CLI_HH
#define OVERLAYSIM_COMMON_CLI_HH

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace ovl::cli
{

/** Remove the first `flag value` pair from @p args; nullopt if absent. */
inline std::optional<std::string>
takeFlag(std::vector<std::string> &args, const std::string &flag)
{
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == flag) {
            std::string value = std::move(args[i + 1]);
            args.erase(args.begin() + std::ptrdiff_t(i),
                       args.begin() + std::ptrdiff_t(i) + 2);
            return value;
        }
    }
    return std::nullopt;
}

/** Remove every bare @p flag from @p args; whether there was one. */
inline bool
takeSwitch(std::vector<std::string> &args, const std::string &flag)
{
    auto it = std::remove(args.begin(), args.end(), flag);
    bool found = it != args.end();
    args.erase(it, args.end());
    return found;
}

/**
 * Parse the value @p text of @p flag as a decimal count: digits only
 * (no sign, whitespace, exponent or unit suffix) and at most 2^64 - 1.
 * "1e6", "5k", "" and "18446744073709551616" are rejected, not truncated.
 */
inline std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end) {
        throw std::invalid_argument(flag + " expects a non-negative integer,"
                                           " got '" + text + "'");
    }
    return value;
}

/** takeFlag() then parseCount(): a numeric flag, validated when taken. */
inline std::optional<std::uint64_t>
takeCount(std::vector<std::string> &args, const std::string &flag)
{
    std::optional<std::string> text = takeFlag(args, flag);
    if (!text)
        return std::nullopt;
    return parseCount(flag, *text);
}

} // namespace ovl::cli

#endif // OVERLAYSIM_COMMON_CLI_HH
