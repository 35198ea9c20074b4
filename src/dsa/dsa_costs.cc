#include "dsa/dsa_costs.hh"

namespace v3sim::dsa
{

bool DsaClientCosts::operator==(const DsaClientCosts &) const = default;
std::strong_ordering
DsaClientCosts::operator<=>(const DsaClientCosts &) const = default;

bool DsaConfig::operator==(const DsaConfig &) const = default;
std::strong_ordering
DsaConfig::operator<=>(const DsaConfig &) const = default;

} // namespace v3sim::dsa
