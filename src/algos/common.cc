#include "src/algos/common.h"

namespace egraph {

void PrepareForRun(GraphHandle& handle, const RunConfig& config) {
  PrepareConfig prepare;
  prepare.layout = config.layout;
  prepare.method = config.method;
  prepare.symmetric_input = config.symmetric_input;
  if (IsVertexCentric(config.layout)) {
    prepare.need_out =
        config.direction == Direction::kPush || config.direction == Direction::kPushPull;
    prepare.need_in =
        config.direction == Direction::kPull || config.direction == Direction::kPushPull;
  }
  if (config.layout == Layout::kSharded) {
    prepare.num_shards = config.shards;
  }
  handle.Prepare(prepare);
}

}  // namespace egraph
