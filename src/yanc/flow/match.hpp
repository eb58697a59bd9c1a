// The protocol-neutral flow match model.
//
// A Match is the 12-tuple the paper's flow directories expose as match.*
// files (§3.4): every field is optional, and an absent field means
// wildcard.  The same model is compiled to OpenFlow 1.0 fixed matches and
// OpenFlow 1.3 OXM TLVs by yanc::ofp, evaluated against packets by the
// software switch, and intersected by the slicer (views restrict flows to
// a header-space slice).
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>

#include "yanc/util/net_types.hpp"

namespace yanc::flow {

/// Concrete header values extracted from one packet; what a Match is
/// evaluated against.
struct FieldValues {
  std::uint16_t in_port = 0;
  MacAddress dl_src;
  MacAddress dl_dst;
  std::uint16_t dl_type = 0;
  std::uint16_t dl_vlan = 0xffff;  // 0xffff = untagged (OF 1.0 convention)
  std::uint8_t dl_vlan_pcp = 0;
  Ipv4Address nw_src;
  Ipv4Address nw_dst;
  std::uint8_t nw_proto = 0;
  std::uint8_t nw_tos = 0;
  std::uint16_t tp_src = 0;
  std::uint16_t tp_dst = 0;
};

/// A flow table match; every field optional (wildcard when absent).
/// IPv4 source/destination carry a prefix length via Cidr, as the paper's
/// match.nw_src file takes CIDR notation.
struct Match {
  std::optional<std::uint16_t> in_port;
  std::optional<MacAddress> dl_src;
  std::optional<MacAddress> dl_dst;
  std::optional<std::uint16_t> dl_type;
  std::optional<std::uint16_t> dl_vlan;
  std::optional<std::uint8_t> dl_vlan_pcp;
  std::optional<Cidr> nw_src;
  std::optional<Cidr> nw_dst;
  std::optional<std::uint8_t> nw_proto;
  std::optional<std::uint8_t> nw_tos;
  std::optional<std::uint16_t> tp_src;
  std::optional<std::uint16_t> tp_dst;

  bool operator==(const Match&) const = default;
  /// Field by field, in declaration order: an order for indexing flow
  /// entries by identity, not a measure of width.
  auto operator<=>(const Match&) const = default;

  /// True when this match is satisfied by the packet's field values.
  bool matches(const FieldValues& fields) const;

  /// True when every packet matching `other` also matches *this (i.e.
  /// *this is the same or wider).
  bool subsumes(const Match& other) const;

  /// Intersection of two matches: the match satisfied exactly by packets
  /// satisfying both; nullopt when the intersection is empty.  Used by the
  /// slicer to confine a view's flows to its slice predicate.
  std::optional<Match> intersect(const Match& other) const;

  /// Number of wildcarded fields (12 = match-all).
  int wildcard_count() const;
  bool is_match_all() const { return wildcard_count() == 12; }

  /// Exact-match constructor from concrete packet fields.
  static Match exact_from(const FieldValues& fields);

  /// "dl_type=0x0800,nw_src=10.0.0.0/8,..." (empty string = match-all).
  std::string to_string() const;
};

}  // namespace yanc::flow
