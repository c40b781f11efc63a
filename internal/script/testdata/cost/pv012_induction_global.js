// expect: PV012
// The loop looks counted, but its induction variable is a module global
// that the function it calls rewinds: nothing in the loop's own text shows
// the write, so only a variable no callee can reach may be trusted.
var i = 0;
var rewinds = 0;
function reset() {
  if (rewinds < 50) {
    i = 0;
  }
  rewinds = rewinds + 1;
}
function event_received(message) {
  for (i = 0; i < 3; i++) {
    reset();
  }
  frame_done();
}
