// The benchmark's load-generator process (see generator.cpp).
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct GenArgs {
    std::string workload;
    std::uint64_t seed{0};
    double seconds{10};
    bool trace{false};
    std::uint16_t mqtt_port{0};
    std::uint16_t rest_port{0};
};

int generator_main(const GenArgs& args);

}  // namespace perfbench
