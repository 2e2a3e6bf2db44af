// R7 bad: a production code path bypassing plan replay — both the public
// reference entry point and the internal interpreted walk are off-limits
// outside chainnet.{h,cpp} / plan_compiler.{h,cpp}.
double score(Model& model, const Graph& g) {
  const auto values = model.forward_values_interpreted(g);
  return values.front().throughput;
}

void score_internal(Impl& impl, const Graph& g) {
  impl.run_values_interpreted(g);
}
