// expect: PV012
// A local function value that takes a builtin's name is not the builtin:
// the for-of iterates whatever the local returns, not range(1)'s one item.
function event_received(message) {
  var acc = 0;
  var range = function(n) {
    return [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20];
  };
  for (var x of range(1)) {
    acc = acc + x;
    acc = acc + x;
    acc = acc + x;
  }
  metric("acc", acc);
  frame_done();
}
