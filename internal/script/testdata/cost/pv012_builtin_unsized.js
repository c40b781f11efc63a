// expect: PV012
// A builtin whose work grows with an argument pipecost cannot size — here an
// array the module builds up at run time — leaves the handler unbounded, and
// PV012 names the builtin.
var history = [];
function event_received(message) {
  push(history, message.seq);
  if (index_of(history, 0) >= 0) {
    log("saw the first frame");
  }
  frame_done();
}
