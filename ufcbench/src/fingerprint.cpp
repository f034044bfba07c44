#include "fingerprint.h"

#include <fstream>
#include <sstream>
#include <thread>

#include "common/json.h"
#include "math/ntt.h"

#ifndef UFCBENCH_BUILD_TYPE
#define UFCBENCH_BUILD_TYPE "unknown"
#endif

namespace ufcbench {

namespace {

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // namespace

std::string
fingerprintJson()
{
    using ufc::json::quote;
    const bool ifma = ufc::detail::avx512IfmaAvailable();
    std::ostringstream os;
    os << "{\"cpu\": " << quote(cpuModel())
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"avx512_ifma\": " << (ifma ? "true" : "false")
       << ", \"ntt_q_below_2^50\": " << quote(ifma ? "ifma" : "scalar")
       << ", \"compiler\": " << quote("gcc " __VERSION__)
       << ", \"build_type\": " << quote(UFCBENCH_BUILD_TYPE) << "}";
    return os.str();
}

std::string
buildRefusal()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#elif !defined(NDEBUG)
    return "Debug build (NDEBUG unset)";
#else
    const std::string type = UFCBENCH_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo")
        return "build type '" + type + "' is not optimized";
    return "";
#endif
}

} // namespace ufcbench
