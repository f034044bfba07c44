/**
 * @file
 * Host and build fingerprint printed with every benchmark result, and
 * the refusal to time a build that is not optimized.
 */

#ifndef UFCBENCH_FINGERPRINT_H
#define UFCBENCH_FINGERPRINT_H

#include <string>

namespace ufcbench {

/** One JSON object: CPU model, nproc, AVX-512 IFMA, which NTT path a
 *  q < 2^50 modulus takes, compiler and CMAKE_BUILD_TYPE. */
std::string fingerprintJson();

/** Empty when this binary may be timed; otherwise why not (a Debug or
 *  sanitizer build). */
std::string buildRefusal();

} // namespace ufcbench

#endif // UFCBENCH_FINGERPRINT_H
