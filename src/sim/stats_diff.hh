/**
 * @file
 * Stats forensics: parse two golden-stats JSON dumps (the
 * System::dumpAllStatsJson grammar — an object of stat groups whose
 * values are numbers, null, or nested objects like histograms) and
 * localize drift to the *first diverging scalar* instead of an opaque
 * byte-compare failure. Backs `overlaysim stats-diff a.json b.json`.
 */

#ifndef OVERLAYSIM_SIM_STATS_DIFF_HH
#define OVERLAYSIM_SIM_STATS_DIFF_HH

#include <cstdio>
#include <string>
#include <vector>

namespace ovl::statsdiff
{

/** One flattened leaf: "group.stat[.field[.bucket]]" → value. */
struct Scalar
{
    std::string path;
    double value = 0.0;
    bool isNull = false; ///< the JSON literal null
};

/** A parsed stats document: leaves flattened in file order. */
struct Doc
{
    std::vector<Scalar> scalars;
};

/**
 * Parse @p text against the restricted golden-stats grammar (objects,
 * numbers, null; no arrays or strings). Throws std::runtime_error with
 * a byte offset on malformed input.
 */
Doc parseStatsJson(const std::string &text);

/** parseStatsJson over the contents of @p path (throws on IO error). */
Doc parseStatsFile(const std::string &path);

/** The localized difference between two parsed documents. */
struct DiffResult
{
    bool identical = true;
    std::size_t diffCount = 0;   ///< scalars differing or one-sided
    std::string firstPath;       ///< first diverging path, doc-a order
    bool firstOnlyInA = false;
    bool firstOnlyInB = false;
    double aValue = 0.0;         ///< meaningful unless firstOnlyInB
    double bValue = 0.0;         ///< meaningful unless firstOnlyInA
    bool aNull = false;
    bool bNull = false;
    std::size_t comparedCount = 0; ///< scalars present in both docs
};

/** Compare @p a and @p b; first divergence follows a's file order
 *  (paths only in b are reported after all of a's). */
DiffResult diff(const Doc &a, const Doc &b);

/**
 * CLI entry: parse both files, print either "stats identical" or the
 * first divergence + differing-scalar count to @p out. Returns 0 when
 * identical, 1 when differing, 2 on parse/IO failure.
 */
int runStatsDiff(const std::string &path_a, const std::string &path_b,
                 std::FILE *out);

} // namespace ovl::statsdiff

#endif // OVERLAYSIM_SIM_STATS_DIFF_HH
