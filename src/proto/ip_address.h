// Network-layer addressing: IPv4-style addresses and ports.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>

namespace hydra::proto {

// 32-bit IPv4-style address. Strongly typed; value 0 is "unspecified".
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t value) : value_(value) {}
  constexpr static Ipv4Address from_octets(std::uint8_t a, std::uint8_t b,
                                           std::uint8_t c, std::uint8_t d) {
    return Ipv4Address((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
                       (std::uint32_t{c} << 8) | d);
  }
  // Address of the simulated node with the given index: index+1 across
  // the low 16 bits, 10.0.hi.lo. Worlds of up to 255 nodes keep
  // 10.0.0.(index+1); the low 16 bits equal MacAddress::for_node(index).
  constexpr static Ipv4Address for_node(std::uint32_t node_index) {
    return Ipv4Address(kNodePrefix | ((node_index + 1) & 0xffffu));
  }
  // Inverse of for_node: the node index of a 10.0.hi.lo address; none
  // for any other address (10.0.0.0 included).
  constexpr std::optional<std::uint32_t> node_index() const {
    const std::uint32_t low = value_ & 0xffffu;
    if ((value_ & 0xffff0000u) != kNodePrefix || low == 0) return std::nullopt;
    return low - 1;
  }
  constexpr static Ipv4Address broadcast() {
    return Ipv4Address(0xffffffffu);
  }

  constexpr std::uint32_t value() const { return value_; }
  constexpr bool is_broadcast() const { return value_ == 0xffffffffu; }
  constexpr bool is_unspecified() const { return value_ == 0; }

  friend constexpr auto operator<=>(Ipv4Address, Ipv4Address) = default;

 private:
  static constexpr std::uint32_t kNodePrefix = 0x0a000000u;  // 10.0.0.0/16
  std::uint32_t value_ = 0;
};

std::string to_string(Ipv4Address addr);

using Port = std::uint16_t;

// (address, port) pair identifying a transport endpoint.
struct Endpoint {
  Ipv4Address address;
  Port port = 0;
  friend constexpr auto operator<=>(const Endpoint&, const Endpoint&) =
      default;
};

}  // namespace hydra::proto
